//! Tracked performance baseline: a small sweep of end-to-end simulator
//! throughput across {FT8 seed-scale, FT16 seed-scale} topologies and
//! {NoCache, SwitchV2P, Bluebird} translation schemes.
//!
//! Each cell runs the full simulation once per shard count — always on one
//! shard, and additionally on N pod shards when `--shards N` (N > 1) is
//! given — and reports events/sec, wall-clock, speedup over the one-shard
//! run of the same cell, peak calendar-queue length and peak packet-arena occupancy (summed
//! across shard arenas), all lifted from the same run-manifest plumbing
//! every other bench binary uses. The sweep is written to
//! `BENCH_netsim.json` — committed at the repo root so the perf trajectory
//! of the reproduction is diffable across commits, and consumed by the CI
//! perf-smoke job which fails the build if throughput regresses below 50%
//! of the committed baseline.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin sv2p-perfbench [-- --seed N] [-- --full] [-- --shards N]
//! ```
//!
//! Quick (seed) scale finishes in seconds and is what CI runs; `--full`
//! sweeps the paper-scale workloads.

use sv2p_bench::cli;
use sv2p_bench::harness::{ExperimentSpec, StrategyKind};
use sv2p_bench::Scale;
use sv2p_telemetry::json::JsonObj;
use sv2p_telemetry::Phase;
use sv2p_traces::{alibaba, hadoop, FlowSource};

struct Cell {
    workload: &'static str,
    topology: String,
    strategy: &'static str,
    shards: u64,
    events: u64,
    wall_clock_s: f64,
    events_per_sec: f64,
    speedup: f64,
    peak_queue: u64,
    peak_arena: u64,
    hit_rate: f64,
    /// Synchronization-overhead fractions from the engine self-profiler:
    /// wall-clock shares of barrier idling, journal merge, and cut-link
    /// exchange (seq grants + cross-shard delivery). 0.0 for
    /// single-threaded rows — there is no sharding overhead to measure.
    barrier_frac: f64,
    merge_frac: f64,
    cut_exchange_frac: f64,
    /// Coefficient of variation of per-shard replay time (0 = balanced).
    imbalance_cv: f64,
    /// Barrier windows the sharded engine dispatched (0 single-threaded).
    window_count: u64,
    /// Cut-link events exchanged between shards (0 single-threaded).
    cut_events: u64,
    /// Peak RSS over this cell alone: the kernel watermark is reset before
    /// each cell (`cli::reset_peak_rss`), so cells don't inherit an earlier
    /// cell's high-water mark.
    peak_rss_bytes: u64,
    /// VMs placed in this cell's topology.
    placed_vms: u64,
    /// Peak RSS divided by placed VMs: the memory-scaling figure of merit
    /// the million-VM tier is gated on (schema v5).
    bytes_per_vm: f64,
    /// Resident bytes of the compact V2P state (mapping table + placement
    /// columns) — the structures the compaction work targets, separated
    /// from whole-process RSS so regressions are attributable.
    mapping_bytes: u64,
}

fn run_cell(
    spec: &ExperimentSpec,
    workload: &'static str,
    topology: &'static str,
    baseline_eps: Option<f64>,
) -> Cell {
    cli::reset_peak_rss();
    let mut sim = spec.build();
    let start = std::time::Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let s = sim.summary();
    cli::record_run(spec, &sim, &s, wall);
    let events = sim.events_executed();
    let eps = events as f64 / wall.max(1e-9);
    let shards = sim.shards() as u64;
    let placed_vms = sim.placement().len() as u64;
    let mapping_bytes =
        (sim.db().resident_bytes() + sim.placement().resident_bytes()) as u64;
    let speedup = baseline_eps.map_or(1.0, |base| eps / base.max(1e-9));
    let prof = sim.profiler();
    let (barrier_frac, merge_frac, cut_exchange_frac, imbalance_cv) = if prof.enabled() {
        (
            prof.frac(Phase::BarrierWait),
            prof.frac(Phase::JournalMerge),
            prof.frac(Phase::CutExchange),
            prof.imbalance_cv(),
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    println!(
        "  {:<12} {:<14} x{:<2} {:>12} events {:>12.0} ev/s  speedup {:>5.2}x  wall {:>7.3}s  peak-q {:>7}  peak-arena {:>6}  windows {:>7}  cuts {:>8}  barrier {:>4.1}%  merge {:>4.1}%  cut-xchg {:>4.1}%  cv {:.2}",
        workload,
        spec.strategy.name(),
        shards,
        events,
        eps,
        speedup,
        wall,
        sim.peak_queue(),
        sim.peak_arena(),
        sim.window_count(),
        sim.cut_events(),
        barrier_frac * 100.0,
        merge_frac * 100.0,
        cut_exchange_frac * 100.0,
        imbalance_cv,
    );
    let peak_rss = cli::peak_rss_bytes();
    let bytes_per_vm = peak_rss as f64 / placed_vms.max(1) as f64;
    println!(
        "  {:<12}   memory: rss {:>11} B  {:>8.1} B/VM  v2p-state {:>10} B  ({} VMs)",
        "", peak_rss, bytes_per_vm, mapping_bytes, placed_vms,
    );
    Cell {
        workload,
        topology: topology.to_string(),
        strategy: spec.strategy.name(),
        shards,
        events,
        wall_clock_s: wall,
        events_per_sec: eps,
        speedup,
        peak_queue: sim.peak_queue() as u64,
        peak_arena: sim.peak_arena() as u64,
        hit_rate: s.hit_rate,
        barrier_frac,
        merge_frac,
        cut_exchange_frac,
        imbalance_cv,
        window_count: sim.window_count(),
        cut_events: sim.cut_events(),
        peak_rss_bytes: peak_rss,
        placed_vms,
        bytes_per_vm,
        mapping_bytes,
    }
}

/// Runs one (workload, strategy) cell across every shard count and appends
/// the rows: shards=1 first (the speedup baseline), then the sharded run.
/// Sharded rows always profile (window-granularity timing is cheap and the
/// phase fractions are the point of the exercise); the shards=1 baseline
/// never does — the single-threaded profiler times every event and would
/// taint the events/sec the speedup column is measured against.
fn run_shard_rows(
    cells: &mut Vec<Cell>,
    spec: &ExperimentSpec,
    workload: &'static str,
    topology: &'static str,
    shard_counts: &[u16],
) {
    let mut baseline_eps = None;
    for &n in shard_counts {
        let spec = {
            let mut s = spec.clone();
            s.shards = n;
            s.profile = n > 1;
            s
        };
        let cell = run_cell(&spec, workload, topology, baseline_eps);
        if n == 1 {
            baseline_eps = Some(cell.events_per_sec);
        }
        cells.push(cell);
    }
}

/// `MemAvailable` from /proc/meminfo, `None` where unsupported (the huge
/// tier is then attempted unconditionally).
fn mem_available_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn main() {
    let args = cli::init("perfbench");
    let scale = args.scale;
    let strategies = [
        StrategyKind::NoCache,
        StrategyKind::SwitchV2P,
        StrategyKind::Bluebird,
    ];
    // Always measure the single-threaded baseline; add the sharded engine
    // when --shards N > 1 was given (speedups are relative to shards=1 on
    // the same host in the same process).
    let shard_counts: Vec<u16> = if args.shards() > 1 {
        vec![1, args.shards()]
    } else {
        vec![1]
    };

    println!(
        "Perf baseline sweep ({} scale, seed {}, shard counts {:?}, {} host cores)\n",
        cli::scale_str(),
        args.seed(),
        shard_counts,
        cli::host_cores(),
    );

    let mut cells: Vec<Cell> = Vec::new();

    // FT8 seed-scale: the Hadoop workload on the 8-ary fat-tree.
    let ft8 = scale.ft8();
    let ft8_flows = hadoop(&scale.hadoop());
    for &strategy in &strategies {
        let cache = if strategy.cache_sensitive() {
            scale.analysis_cache_entries("")
        } else {
            0
        };
        let spec = ExperimentSpec::builder(ft8.clone(), strategy)
            .flows(ft8_flows.clone())
            .cache_entries(cache)
            .seed(args.seed())
            .label(format!("ft8-hadoop.{}", strategy.name()))
            .build();
        run_shard_rows(&mut cells, &spec, "ft8-hadoop", "ft8-10k", &shard_counts);
    }

    // FT16 seed-scale: the Alibaba trace on the 16-ary fat-tree.
    let (ft16, ali_cfg, vms_per_server) = scale.alibaba();
    let ft16_flows = alibaba(&ali_cfg);
    let active = scale.active_addresses("alibaba");
    for &strategy in &strategies {
        let cache = if strategy.cache_sensitive() {
            ((0.5 * active as f64) as usize).max(1)
        } else {
            0
        };
        let spec = ExperimentSpec::builder(ft16.clone(), strategy)
            .vms_per_server(vms_per_server)
            .flows(ft16_flows.clone())
            .cache_entries(cache)
            .seed(args.seed())
            .label(format!("ft16-alibaba.{}", strategy.name()))
            .build();
        run_shard_rows(&mut cells, &spec, "ft16-alibaba", "ft16-400k", &shard_counts);
    }

    // FT32 million-VM tier (--huge): one streamed SwitchV2P run on the
    // 32-ary fat-tree, on one shard (memory per shard count is what
    // `sv2p-scale-smoke` measures, one fresh process each). The
    // workload never materializes — the engine pulls flows from the
    // source — so the cell's RSS is dominated by per-VM state, which is
    // the regression surface `bytes_per_vm` gates.
    if scale == Scale::Huge {
        const HUGE_NEEDED_BYTES: u64 = 4 << 30;
        match mem_available_bytes() {
            Some(avail) if avail < HUGE_NEEDED_BYTES => {
                eprintln!(
                    "WARNING: skipping ft32-1m cell: {avail} bytes available < {HUGE_NEEDED_BYTES} needed"
                );
            }
            _ => {
                let spec = ExperimentSpec::builder(scale.ft32(), StrategyKind::SwitchV2P)
                    .vms_per_server(32)
                    .flow_source(FlowSource::hadoop(&scale.huge_hadoop()))
                    .cache_entries(scale.analysis_cache_entries(""))
                    .seed(args.seed())
                    .shards(1)
                    .label("ft32-hadoop.SwitchV2P")
                    .build();
                run_shard_rows(&mut cells, &spec, "ft32-hadoop", "ft32-1m", &[1]);
            }
        }
    }

    // Compose the baseline file by hand: a header object plus one flat
    // JSON object per cell (the vendored serde is a stub; JsonObj is the
    // workspace-wide serializer).
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"sv2p-perfbench/v5\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", cli::scale_str()));
    out.push_str(&format!("  \"seed\": {},\n", args.seed()));
    out.push_str(&format!("  \"host_cores\": {},\n", cli::host_cores()));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let mut obj = JsonObj::new();
        obj.str("workload", c.workload)
            .str("topology", &c.topology)
            .str("strategy", c.strategy)
            .u64("shards", c.shards)
            .u64("events_processed", c.events)
            .f64("wall_clock_s", c.wall_clock_s)
            .f64("events_per_sec", c.events_per_sec)
            .f64("speedup", c.speedup)
            .u64("peak_queue", c.peak_queue)
            .u64("peak_arena", c.peak_arena)
            .f64("hit_rate", c.hit_rate)
            .f64("barrier_frac", c.barrier_frac)
            .f64("merge_frac", c.merge_frac)
            .f64("cut_exchange_frac", c.cut_exchange_frac)
            .f64("imbalance_cv", c.imbalance_cv)
            .u64("window_count", c.window_count)
            .u64("cut_events", c.cut_events)
            .u64("peak_rss_bytes", c.peak_rss_bytes)
            .u64("placed_vms", c.placed_vms)
            .f64("bytes_per_vm", c.bytes_per_vm)
            .u64("mapping_bytes", c.mapping_bytes);
        out.push_str("    ");
        out.push_str(&obj.finish());
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    let path = "BENCH_netsim.json";
    std::fs::write(path, &out).expect("write BENCH_netsim.json");
    println!("\n[perfbench] wrote {} cell(s) -> {path}", cells.len());
    cli::finish();
}
