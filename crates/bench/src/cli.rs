//! Shared CLI arguments and run recording for the bench binaries.
//!
//! Every binary under `src/bin/` begins with [`init`] (its own name) and
//! ends with [`finish`]. In between, [`run_spec`](crate::harness::run_spec)
//! records one [`RunManifest`] per simulation into a process-wide sink;
//! `finish` writes the sink — sorted by [`RunManifest::sort_key`], so the
//! file never depends on sweep-thread scheduling — to
//! `results/<bin>[.<dataset>].manifest.jsonl`.
//!
//! Common flags (accepted anywhere on the command line):
//!
//! * `--full` — paper-scale parameters (default: quick);
//! * `--seed N` — RNG seed override (default: 1);
//! * `--telemetry DIR` — enable structured tracing and write
//!   `<label>.events.jsonl` / `<label>.samples.jsonl` per run into DIR;
//! * `--profile DIR` — enable engine self-profiling and write
//!   `<label>.profile.jsonl` per run into DIR (phase wall-clock breakdown,
//!   occupancy histograms; inspect with `sv2p profile`). Simulation output
//!   stays byte-identical;
//! * `--churn-horizon-us N` — churn timeline length, honoured by the
//!   `churn` bin (default scale-based).
//!
//! A bin with a switch of its own (`tracegen --dump`) names it to
//! [`init_with`] and reads it back with [`BenchArgs::has`].
//!
//! The one argument that is not a flag is the dataset / sub-command
//! selector (`fig5 -- hadoop`, `fig6 -- all`, …). Any other `--flag`, or a
//! second selector, exits 2 with the usage line: `run_all.sh` forwards its
//! arguments to every binary, so a mistyped flag must not run on defaults.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use sv2p_metrics::RunSummary;
use sv2p_netsim::Engine;
use sv2p_telemetry::manifest::write_manifests;
use sv2p_telemetry::RunManifest;
use sv2p_topology::FatTreeConfig;

use crate::harness::ExperimentSpec;
use crate::Scale;

/// Side-output arguments (`--telemetry`, `--profile`).
#[derive(Debug, Clone, Default)]
pub struct OutputArgs {
    /// `--telemetry DIR`: trace every run into DIR.
    pub telemetry: Option<PathBuf>,
    /// `--profile DIR`: write an engine self-profile per run into DIR.
    pub profile: Option<PathBuf>,
}

/// Arguments shared by every bench binary, grouped by concern.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Quick or paper-scale parameters (`--full`).
    pub scale: Scale,
    /// The positional argument (dataset or sub-command), if any.
    pub dataset: Option<String>,
    /// `--seed N` override.
    pub seed: Option<u64>,
    /// `--churn-horizon-us N`: churn timeline length override.
    pub churn_horizon_us: Option<u64>,
    /// Side outputs (telemetry traces, self-profiles).
    pub output: OutputArgs,
    /// The bin's own switches (see [`init_with`]) that were given.
    own: Vec<String>,
}

const USAGE: &str = "[DATASET] [--full] [--seed N] \
    [--telemetry DIR] [--profile DIR] [--churn-horizon-us N]";

/// The value after `flag`, parsed; `what` names it in the error.
fn value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    argv.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

impl BenchArgs {
    /// Parses a command line (without the program name); `own` lists the
    /// switches only this bin takes. Every bin reaches it through [`init`],
    /// which parses the process's once and caches it.
    fn parse_from(
        mut argv: impl Iterator<Item = String>,
        own: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        while let Some(arg) = argv.next() {
            let flag = arg.as_str();
            match flag {
                "--full" => out.scale = Scale::Full,
                "--seed" => out.seed = Some(value(&mut argv, flag, "an integer")?),
                "--telemetry" => {
                    out.output.telemetry = Some(value(&mut argv, flag, "a directory")?)
                }
                "--profile" => out.output.profile = Some(value(&mut argv, flag, "a directory")?),
                "--churn-horizon-us" => {
                    out.churn_horizon_us = Some(value(&mut argv, flag, "an integer")?)
                }
                _ if own.contains(&flag) => out.own.push(arg),
                _ if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ if out.dataset.is_some() => return Err(format!("surplus argument {flag}")),
                _ => out.dataset = Some(arg),
            }
        }
        Ok(out)
    }

    /// The effective seed: `--seed N` if given, else 1 (the historical
    /// default every bin hard-coded).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    /// Whether `flag`, one of the bin's own switches, was given.
    pub fn has(&self, flag: &str) -> bool {
        self.own.iter().any(|f| f == flag)
    }

    /// The dataset selector, defaulting to `fallback`.
    pub fn dataset_or<'a>(&'a self, fallback: &'a str) -> &'a str {
        self.dataset.as_deref().unwrap_or(fallback)
    }
}

static ARGS: OnceLock<BenchArgs> = OnceLock::new();
static BIN: OnceLock<String> = OnceLock::new();
static SINK: Mutex<Vec<RunManifest>> = Mutex::new(Vec::new());

/// The process's bench arguments: what [`init`] parsed, or the defaults in
/// a process that is not a bench binary (a test, `benchmark/`), whose
/// command line is its own.
pub fn args() -> &'static BenchArgs {
    ARGS.get_or_init(BenchArgs::default)
}

/// Registers the binary's name (used for the manifest path and trace-file
/// labels), parses the command line — exiting 2 with the usage line on an
/// argument it does not know — and returns the result. Call first in every
/// `main`.
pub fn init(bin: &str) -> &'static BenchArgs {
    init_with(bin, &[])
}

/// [`init`] for a bin that takes the switches `own` (valueless `--flags`)
/// besides the shared ones; read them with [`BenchArgs::has`].
pub fn init_with(bin: &str, own: &[&str]) -> &'static BenchArgs {
    let _ = BIN.set(bin.to_string());
    let parsed = BenchArgs::parse_from(std::env::args().skip(1), own).unwrap_or_else(|e| {
        let own: String = own.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("{bin}: {e}\nusage: {bin} {USAGE}{own}");
        std::process::exit(2);
    });
    ARGS.set(parsed)
        .expect("cli::init runs once, before anything reads cli::args");
    args()
}

/// The `--telemetry` output directory, if tracing was requested.
pub fn telemetry_dir() -> Option<&'static Path> {
    args().output.telemetry.as_deref()
}

/// The `--profile` output directory, if self-profiling was requested.
pub fn profile_dir() -> Option<&'static Path> {
    args().output.profile.as_deref()
}

/// "quick" or "full", for manifest rows.
pub fn scale_str() -> &'static str {
    match args().scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// Appends one manifest to the process sink (written by [`finish`]).
pub fn record_manifest(m: RunManifest) {
    SINK.lock().expect("manifest sink").push(m);
}

/// A short machine-readable topology label ("ft8p4r4s" = 8 pods × 4 racks
/// × 4 servers).
pub fn topology_label(ft: &FatTreeConfig) -> String {
    format!(
        "ft{}p{}r{}s",
        ft.pods, ft.racks_per_pod, ft.servers_per_rack
    )
}

/// Logical cores on this host (manifest context).
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0)
}

/// Process peak resident set size in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, 0 where unavailable. Monotonic over the
/// process's life, so a bin's later runs report the running maximum.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

/// Process resident set size right now (`VmRSS`), 0 where unavailable.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Builds a manifest row for a hand-driven simulation.
#[allow(clippy::too_many_arguments)]
pub fn manifest_for_sim(
    strategy: &str,
    topology: &FatTreeConfig,
    config: &str,
    seed: u64,
    cache_entries: u64,
    sim: &Engine,
    summary: &RunSummary,
    wall_clock_s: f64,
) -> RunManifest {
    let events = sim.events_executed();
    RunManifest {
        experiment: BIN.get().cloned().unwrap_or_else(|| "adhoc".into()),
        strategy: strategy.to_string(),
        topology: topology_label(topology),
        config: config.to_string(),
        scale: scale_str().into(),
        seed,
        cache_entries,
        flows: summary.flows,
        flows_completed: summary.flows_completed,
        hit_rate: summary.hit_rate,
        wall_clock_s,
        events_processed: events,
        events_per_sec: events as f64 / wall_clock_s.max(1e-9),
        peak_queue: sim.peak_queue() as u64,
        peak_arena: sim.peak_arena() as u64,
        telemetry_enabled: sim.tracer().enabled(),
        host_cores: host_cores(),
        peak_rss_bytes: peak_rss_bytes(),
        trace_events_dropped: sim.tracer().dropped(),
    }
}

/// Writes the sim's trace/sample files into the `--telemetry` directory
/// under `label` (no-op when tracing is off or no directory was given).
pub fn write_traces(sim: &Engine, label: &str) {
    let Some(dir) = telemetry_dir() else { return };
    if !sim.tracer().enabled() {
        return;
    }
    let tracer = sim.tracer();
    match tracer.write_to_dir(dir, label) {
        Ok((ev, _)) => {
            eprintln!(
                "[telemetry] {} events, {} samples -> {}",
                tracer.total_recorded(),
                tracer.samples.len(),
                ev.display()
            );
            if tracer.dropped() > 0 {
                eprintln!(
                    "WARNING: [telemetry] {} is truncated: the ring overwrote the oldest {} events",
                    ev.display(),
                    tracer.dropped()
                );
            }
        }
        Err(e) => eprintln!("[telemetry] write failed: {e}"),
    }
}

/// Records a completed simulation: one manifest line, plus trace files when
/// `--telemetry DIR` was given. Called by `run_spec`; call it directly for
/// bins that drive an [`Engine`] by hand.
pub fn record_run(spec: &ExperimentSpec, sim: &Engine, summary: &RunSummary, wall_clock_s: f64) {
    record_manifest(manifest_for_sim(
        spec.strategy.name(),
        &spec.topology,
        &spec.label,
        spec.seed,
        spec.cache_entries as u64,
        sim,
        summary,
        wall_clock_s,
    ));
    write_traces(sim, &trace_label(spec));
    write_profile(sim, &trace_label(spec), spec.seed);
}

/// Writes the engine's self-profile report into the `--profile` directory
/// under `label` (no-op when profiling is off or no directory was given).
pub fn write_profile(sim: &Engine, label: &str, seed: u64) {
    let Some(dir) = profile_dir() else { return };
    if !sim.profiler().enabled() {
        return;
    }
    let meta = sv2p_telemetry::ProfileMeta {
        bin: BIN.get().cloned().unwrap_or_else(|| "adhoc".into()),
        label: label.to_string(),
        seed,
        events_executed: sim.events_executed(),
        host_cores: host_cores(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    let report = sim.profiler().render_report(&meta);
    let path = dir.join(format!("{label}.profile.jsonl"));
    let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, report));
    match res {
        Ok(()) => eprintln!("[profile] {}", path.display()),
        Err(e) => eprintln!("[profile] write failed for {}: {e}", path.display()),
    }
}

/// Trace-file label, derived from the spec alone (never from thread or
/// completion order) so a rerun names its files identically.
fn trace_label(spec: &ExperimentSpec) -> String {
    let bin = BIN.get().map(String::as_str).unwrap_or("adhoc");
    let mut label = format!("{bin}.{}", spec.strategy.name());
    if !spec.label.is_empty() {
        label.push('.');
        label.push_str(&sanitize(&spec.label));
    }
    label.push_str(&format!(".c{}.s{}", spec.cache_entries, spec.seed));
    label
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Writes the manifest sink to `results/<bin>[.<dataset>].manifest.jsonl`
/// (the dataset suffix keeps `fig5 hadoop` from clobbering `fig5 video`).
/// Call last in every `main` — including analytic bins, which record a
/// strategy-"-" line so every experiment leaves a manifest.
pub fn finish() {
    let Some(bin) = BIN.get() else {
        return;
    };
    let mut ms = std::mem::take(&mut *SINK.lock().expect("manifest sink"));
    let name = match &args().dataset {
        Some(d) => format!("{bin}.{}.manifest.jsonl", sanitize(d)),
        None => format!("{bin}.manifest.jsonl"),
    };
    let path = Path::new("results").join(name);
    match write_manifests(&path, &mut ms) {
        Ok(()) => eprintln!("[manifest] {} run(s) -> {}", ms.len(), path.display()),
        Err(e) => eprintln!("[manifest] write failed for {}: {e}", path.display()),
    }
}

/// A manifest line for an analytic (no-simulation) step.
pub fn analytic_manifest(config: &str, wall_clock_s: f64) -> RunManifest {
    RunManifest {
        experiment: BIN.get().cloned().unwrap_or_else(|| "adhoc".into()),
        strategy: "-".into(),
        topology: "-".into(),
        config: config.into(),
        scale: scale_str().into(),
        seed: args().seed(),
        wall_clock_s,
        host_cores: host_cores(),
        peak_rss_bytes: peak_rss_bytes(),
        ..RunManifest::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), &[]).expect("valid arguments")
    }

    fn parse_err(args: &[&str]) -> String {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), &[]).expect_err("rejected")
    }

    #[test]
    fn parses_flags_in_any_order() {
        let a = parse(&[
            "--telemetry",
            "out",
            "hadoop",
            "--seed",
            "7",
            "--full",
            "--profile",
            "prof",
            "--churn-horizon-us",
            "30000",
        ]);
        assert_eq!(a.churn_horizon_us, Some(30_000));
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.dataset.as_deref(), Some("hadoop"));
        assert_eq!(a.seed(), 7);
        assert_eq!(a.output.telemetry.as_deref(), Some(Path::new("out")));
        assert_eq!(a.output.profile.as_deref(), Some(Path::new("prof")));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(parse_err(&["--shard", "4"]), "unknown flag --shard");
        assert_eq!(parse_err(&["hadoop", "--sed", "7"]), "unknown flag --sed");
        assert_eq!(parse_err(&["--seed"]), "--seed needs an integer");
        assert_eq!(parse_err(&["--seed", "x"]), "--seed needs an integer");
    }

    #[test]
    fn a_second_positional_is_rejected() {
        assert_eq!(parse_err(&["hadoop", "video"]), "surplus argument video");
        assert_eq!(parse_err(&["--seed", "7", "a", "b"]), "surplus argument b");
    }

    #[test]
    fn a_bin_own_switch_is_accepted_only_where_declared() {
        let argv = || ["hadoop", "--dump", "--full"].into_iter().map(String::from);
        let a = BenchArgs::parse_from(argv(), &["--dump"]).expect("declared switch");
        assert!(a.has("--dump"));
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.dataset.as_deref(), Some("hadoop"));
        assert!(!parse(&["hadoop"]).has("--dump"));
        assert_eq!(parse_err(&["hadoop", "--dump"]), "unknown flag --dump");
    }

    /// [`args`] falls back to the defaults when [`init`] has not run, so a
    /// bin that skipped it would ignore its whole command line.
    #[test]
    fn every_bin_main_begins_with_init() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for entry in std::fs::read_dir(dir).expect("src/bin") {
            let path = entry.expect("entry").path();
            let src = std::fs::read_to_string(&path).expect("source");
            let (_, body) = src.split_once("\nfn main() {\n").expect("a bin has a main");
            let first = body.lines().next().unwrap_or_default();
            assert!(first.contains("cli::init"), "{}: {first}", path.display());
        }
    }

    #[test]
    fn defaults_are_quick_seed1_no_telemetry() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed(), 1);
        assert!(a.dataset.is_none());
        assert!(a.output.telemetry.is_none());
        assert!(a.output.profile.is_none());
        assert_eq!(a.dataset_or("all"), "all");
    }

    #[test]
    fn topology_label_is_compact() {
        assert_eq!(
            topology_label(&FatTreeConfig::ft8_10k()),
            "ft8p4r4s".to_string()
        );
    }
}
