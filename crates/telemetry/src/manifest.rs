//! Run manifests: the machine-readable record of what an experiment bin
//! ran and how fast the simulator chewed through it.
//!
//! One [`RunManifest`] per simulation (or per analytic step for bins that
//! simulate nothing), appended to `results/<bin>.manifest.jsonl` by the
//! bench harness. This is the only telemetry surface allowed to carry
//! wall-clock time: it exists precisely to make the performance trajectory
//! (events/sec across commits) diffable, while traces and samples stay
//! bit-deterministic.

use std::io::Write;
use std::path::Path;

use crate::json::JsonObj;

/// The record of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Bench binary that ran it ("fig5", "table4", …).
    pub experiment: String,
    /// Strategy name ("SwitchV2P", "NoCache", …; "-" for analytic steps).
    pub strategy: String,
    /// Topology label ("FT8-10K", "FT16-400K", "scaled-ft8(2)", …).
    pub topology: String,
    /// Free-form configuration label (dataset, variant, sweep point).
    pub config: String,
    /// Experiment scale ("quick"/"full").
    pub scale: String,
    /// RNG seed.
    pub seed: u64,
    /// Aggregate cache entries across caching switches.
    pub cache_entries: u64,
    /// Flows in the workload.
    pub flows: u64,
    /// Flows that completed.
    pub flows_completed: u64,
    /// End-of-run hit rate.
    pub hit_rate: f64,
    /// Host wall-clock spent inside `Engine::run`, seconds.
    pub wall_clock_s: f64,
    /// Calendar events executed.
    pub events_processed: u64,
    /// `events_processed / wall_clock_s`.
    pub events_per_sec: f64,
    /// Peak calendar-queue length during the run.
    pub peak_queue: u64,
    /// Peak in-flight packets in the arena — the allocations the run
    /// avoided by reusing slots (0 for analytic steps).
    pub peak_arena: u64,
    /// Whether event tracing was on (overhead context for events/sec).
    pub telemetry_enabled: bool,
    /// Logical cores on the host that ran the experiment (context for
    /// events/sec; 0 when unknown).
    pub host_cores: u64,
    /// Process peak resident set size at manifest time (`VmHWM` from
    /// `/proc/self/status` on Linux; 0 where unknown). Monotonic per
    /// process, so later runs in one bin report the running maximum.
    pub peak_rss_bytes: u64,
    /// Trace events the tracer's ring overwrote (`Tracer::dropped`): when
    /// non-zero the run's `events.jsonl` holds only the newest events.
    pub trace_events_dropped: u64,
}

impl RunManifest {
    /// Renders the manifest as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("experiment", &self.experiment)
            .str("strategy", &self.strategy)
            .str("topology", &self.topology)
            .str("config", &self.config)
            .str("scale", &self.scale)
            .u64("seed", self.seed)
            .u64("cache_entries", self.cache_entries)
            .u64("flows", self.flows)
            .u64("flows_completed", self.flows_completed)
            .f64("hit_rate", self.hit_rate)
            .f64("wall_clock_s", self.wall_clock_s)
            .u64("events_processed", self.events_processed)
            .f64("events_per_sec", self.events_per_sec)
            .u64("peak_queue", self.peak_queue)
            .u64("peak_arena", self.peak_arena)
            .bool("telemetry_enabled", self.telemetry_enabled)
            .u64("host_cores", self.host_cores)
            .u64("peak_rss_bytes", self.peak_rss_bytes)
            .u64("trace_events_dropped", self.trace_events_dropped);
        o.finish()
    }

    /// Stable ordering key so a manifest file's line order never depends
    /// on sweep-thread scheduling.
    pub fn sort_key(&self) -> (String, String, u64, u64) {
        (
            self.strategy.clone(),
            self.config.clone(),
            self.cache_entries,
            self.seed,
        )
    }
}

/// Writes `manifests` (sorted by [`RunManifest::sort_key`]) as JSONL to
/// `path`, creating parent directories as needed.
pub fn write_manifests(path: &Path, manifests: &mut [RunManifest]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    manifests.sort_by_key(|a| a.sort_key());
    let mut f = std::fs::File::create(path)?;
    for m in manifests.iter() {
        writeln!(f, "{}", m.to_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_flat;

    fn manifest(strategy: &str, cache: u64) -> RunManifest {
        RunManifest {
            experiment: "test".into(),
            strategy: strategy.into(),
            topology: "scaled-ft8(2)".into(),
            config: "unit".into(),
            scale: "quick".into(),
            seed: 1,
            cache_entries: cache,
            flows: 10,
            flows_completed: 10,
            hit_rate: 0.5,
            wall_clock_s: 0.25,
            events_processed: 1000,
            events_per_sec: 4000.0,
            peak_queue: 42,
            peak_arena: 7,
            telemetry_enabled: false,
            host_cores: 1,
            peak_rss_bytes: 2048 * 1024,
            trace_events_dropped: 3,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let line = manifest("SwitchV2P", 64).to_json();
        let m = parse_flat(&line).expect("parses");
        assert_eq!(m["strategy"].as_str(), Some("SwitchV2P"));
        assert_eq!(m["events_processed"].as_u64(), Some(1000));
        assert_eq!(m["events_per_sec"].as_f64(), Some(4000.0));
        assert_eq!(m["telemetry_enabled"].as_bool(), Some(false));
        assert_eq!(m["host_cores"].as_u64(), Some(1));
        assert_eq!(m["peak_rss_bytes"].as_u64(), Some(2048 * 1024));
        assert_eq!(m["trace_events_dropped"].as_u64(), Some(3));
    }

    #[test]
    fn write_sorts_by_key() {
        let dir = std::env::temp_dir().join("sv2p_manifest_test");
        let path = dir.join("m.manifest.jsonl");
        let mut ms = vec![manifest("SwitchV2P", 64), manifest("NoCache", 0)];
        write_manifests(&path, &mut ms).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("NoCache"), "sorted: {}", lines[0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
