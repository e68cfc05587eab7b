//! Engine self-profiling: phase accounting, log-linear histograms, and the
//! `*.profile.jsonl` report.
//!
//! What the engine spends per event class — and, on several shards, what
//! the equivalence oracle costs: window-boundary bookkeeping, journaled
//! replay, journal merge, cut-link exchange and global-event execution —
//! is invisible to virtual-time telemetry; this module attributes the
//! wall-clock so that cost is a tracked regression surface. The emission
//! points live in `sv2p-netsim` (the run loop and the driver of several
//! shards) and the `--profile DIR` plumbing in `sv2p-bench`.
//!
//! # Determinism segregation rule
//!
//! A profile report mixes two kinds of data and keeps them strictly apart:
//!
//! * **Deterministic artifacts** — call counts, per-shard journal-block
//!   counts, and every histogram over *simulation-state* quantities
//!   (journal block sizes, calendar occupancy, arena occupancy). Two
//!   same-seed runs agree on these byte-for-byte.
//! * **Wall-clock timings** — every `*_ns` total, every fraction, and the
//!   histograms over durations. `Instant`-based values never feed back
//!   into simulation state; they exist only in this side channel, so a
//!   profiled run's telemetry and summaries are byte-identical to an
//!   unprofiled run's.
//!
//! [`deterministic_projection`] extracts the first kind from a rendered
//! report; the profiler determinism regression test pins it.

use std::collections::HashMap;

use crate::json::{parse_flat, JsonObj, JsonValue};

/// Sub-buckets per octave as a power of two: 2^5 = 32 linear sub-buckets,
/// bounding the relative quantization error at ~3%.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Bucket-array size: group 0 holds values `< 2*SUB` exactly; every later
/// group spans one octave with `SUB` linear sub-buckets, up to `u64::MAX`.
const NBUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A hand-rolled HDR-style log-linear histogram of `u64` values.
///
/// No dependencies (the vendored-crate discipline of PR 1): values below
/// 32 are recorded exactly, larger values with ~3% relative error. Storage
/// is a fixed flat array, so [`Histogram::merge`] is element-wise and the
/// bucket layout is identical in every instance.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v`: exact for `v < 2*SUB`, log-linear above.
    /// For `v >= 2*SUB` the octave `[2^msb, 2^(msb+1))` is split into
    /// `SUB` linear sub-buckets; group `g = msb - SUB_BITS >= 1` starts
    /// at index `SUB * (g + 1)`.
    fn index_of(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
        let g = msb - SUB_BITS as u64; // >= 1
        let sub = (v >> g) - SUB; // in [0, SUB)
        (SUB * (g + 1) + sub) as usize
    }

    /// Smallest value mapping to bucket `i` (the bucket's lower boundary).
    fn lower_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i;
        }
        let g = i / SUB - 1;
        let sub = i % SUB;
        (SUB + sub) << g
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at percentile `p` in `[0, 100]`: the lower boundary of the
    /// bucket holding the rank-`ceil(p/100·count)` value, clamped to the
    /// exact observed min/max. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

wire_names! {
    /// One engine phase: where a profiled run's wall-clock went.
    ///
    /// The first block is the engine's run loop on one shard — `Pop` plus one
    /// class per event handler, so "telemetry cost" is visible as the
    /// `TelemetrySample` class and per-packet work is split by event kind.
    /// The second block is the driver of several shards, whose phases add
    /// up to the run: window-boundary computation, the shards' journaled
    /// replays, journal merge, cut-link exchange and global events.
    Phase {
        /// Calendar pop (single-threaded loop).
        Pop => "pop",
        /// `FlowStart` handler dispatch.
        FlowStart => "flow_start",
        /// `UdpSend` handler dispatch.
        UdpSend => "udp_send",
        /// Retired, reads 0: the transmission-complete event it timed is
        /// gone (a link knows at offer time when its packet leaves). The
        /// name stays because `benchmark/` and `BENCHMARK.json` declare
        /// `netsim.link_free_ns`; it leaves with them (ROADMAP item 5).
        LinkFree => "link_free",
        /// `LinkArrival` handler dispatch (the per-hop hot path).
        LinkArrival => "link_arrival",
        /// `RtoTimer` handler dispatch.
        RtoTimer => "rto_timer",
        /// `GatewayDone` handler dispatch.
        Gateway => "gateway",
        /// `ReInject` handler dispatch.
        ReInject => "reinject",
        /// `HostForward` handler dispatch.
        HostForward => "host_forward",
        /// `Migrate` handler dispatch.
        Migrate => "migrate",
        /// `FaultStart`/`FaultEnd` handler dispatch.
        Fault => "fault",
        /// `ChurnMark` handler dispatch.
        ChurnMark => "churn_mark",
        /// `TelemetrySample` handler dispatch (the sampler's own cost).
        TelemetrySample => "telemetry_sample",
        /// Sharded driver: computing each window's `(time, seq)` boundary from
        /// the calendars' next events and the partition lookahead.
        WindowAdvance => "window_advance",
        /// Sharded driver: putting each shard's parked events onto its
        /// calendar under their granted seqs and the cut packets routed to it
        /// into its arena and onto its calendar. (About 0.10 of a two-shard
        /// `ft8-hadoop` run, up from 0.006 when a worker thread applied the
        /// arrivals at the start of its next window and that time counted as
        /// replay.)
        CutExchange => "cut_exchange",
        /// Sharded driver: the shards' journaled replays of each window, one
        /// after another, summed.
        WorkerReplay => "worker_replay",
        /// Retired, reads 0, as [`Phase::LinkFree`]: the shards take turns on
        /// one thread, so nothing waits at a barrier. The name stays because
        /// `benchmark/` and `BENCHMARK.json` declare
        /// `netsim.sharded.barrier_wait_frac`; it leaves with them (ROADMAP
        /// item 5).
        BarrierWait => "barrier_wait",
        /// Sharded driver: k-way journal merge and master-state replay.
        JournalMerge => "journal_merge",
        /// Sharded driver: global events (faults, migrations, churn marks,
        /// telemetry snapshots) executed at their exact global position.
        GlobalExec => "global_exec",
    }
}

wire_names! {
    /// A named histogram slot in the profiler.
    HistKind {
        /// Wall-clock nanoseconds of one shard's replay of one window (timing).
        ShardReplayNs => "shard_replay_ns",
        /// Journal ops per replayed block (deterministic).
        JournalBlockOps => "journal_block_ops",
        /// Pending events in the (driver) calendar at each sample point
        /// (deterministic).
        CalendarLen => "calendar_len",
        /// Events parked in the calendar's overflow heap — the only `O(log n)`
        /// part of the timing wheel — at each sample point (deterministic).
        CalendarOverflow => "calendar_overflow",
        /// Live packets in the arena at each sample point — the arena
        /// high-water trajectory, not just its peak (deterministic).
        ArenaLive => "arena_live",
    }
}

impl HistKind {
    /// Whether the recorded values are functions of simulation state alone
    /// (true) or wall-clock durations (false).
    pub fn deterministic(self) -> bool {
        self != HistKind::ShardReplayNs
    }
}

/// Per-phase accumulator: wall-clock total plus a deterministic call count.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAcc {
    calls: u64,
    total_ns: u64,
}

/// Per-shard accumulator for the sharded driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardAcc {
    /// Wall-clock this shard spent replaying windows.
    pub replay_ns: u64,
    /// Journal blocks this shard contributed to merges. Deterministic.
    pub blocks: u64,
    /// Windows in which this shard had work. Deterministic.
    pub windows: u64,
}

/// The engine-side profile accumulator: one per engine, enabled by
/// `SimConfig::profile`. When disabled every recording method is a
/// single-branch no-op and the engines never read the clock.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    run_ns: u64,
    phases: Vec<PhaseAcc>,
    hists: Vec<Histogram>,
    shards: Vec<ShardAcc>,
    /// Windows in which at least one shard had work. Deterministic.
    pub windows: u64,
    /// Global events the driver executed itself. Deterministic.
    pub global_events: u64,
    /// Journal blocks replayed onto the master. Deterministic.
    pub journal_blocks: u64,
    /// Journal ops replayed onto the master. Deterministic.
    pub journal_ops: u64,
}

impl Profiler {
    /// A profiler; records nothing unless `enabled`.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            run_ns: 0,
            phases: vec![PhaseAcc::default(); Phase::ALL.len()],
            hists: if enabled {
                HistKind::ALL.iter().map(|_| Histogram::new()).collect()
            } else {
                Vec::new()
            },
            shards: Vec::new(),
            windows: 0,
            global_events: 0,
            journal_blocks: 0,
            journal_ops: 0,
        }
    }

    /// A disabled profiler.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// True when the engine should read the clock and record. `#[inline]`
    /// so the disabled guard is one load+branch per site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Grows the per-shard table to `n` entries.
    pub fn ensure_shards(&mut self, n: usize) {
        if self.shards.len() < n {
            self.shards.resize(n, ShardAcc::default());
        }
    }

    /// Adds one timed call to `phase`.
    #[inline]
    pub fn phase_add(&mut self, phase: Phase, ns: u64) {
        if !self.enabled {
            return;
        }
        let acc = &mut self.phases[phase as usize];
        acc.calls += 1;
        acc.total_ns += ns;
    }

    /// Records one value into histogram `kind`.
    #[inline]
    pub fn record(&mut self, kind: HistKind, v: u64) {
        if !self.enabled {
            return;
        }
        self.hists[kind as usize].record(v);
    }

    /// One shard's contribution to one window.
    pub fn shard_sample(&mut self, shard: usize, replay_ns: u64, blocks: u64) {
        if !self.enabled {
            return;
        }
        self.ensure_shards(shard + 1);
        let acc = &mut self.shards[shard];
        acc.replay_ns += replay_ns;
        if blocks > 0 {
            acc.blocks += blocks;
            acc.windows += 1;
        }
    }

    /// The per-shard accumulators.
    pub fn shard_accs(&self) -> &[ShardAcc] {
        &self.shards
    }

    /// Accumulates total run wall-clock (the denominator of every
    /// fraction).
    pub fn add_run_ns(&mut self, ns: u64) {
        if self.enabled {
            self.run_ns += ns;
        }
    }

    /// Total profiled run wall-clock, nanoseconds.
    pub fn run_ns(&self) -> u64 {
        self.run_ns
    }

    /// Total wall-clock attributed to `phase`, nanoseconds.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].total_ns
    }

    /// Deterministic call count of `phase`.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].calls
    }

    /// `phase`'s share of the run wall-clock in `[0, 1]` (0 when nothing
    /// was profiled).
    pub fn frac(&self, phase: Phase) -> f64 {
        if self.run_ns == 0 {
            0.0
        } else {
            self.phase_ns(phase) as f64 / self.run_ns as f64
        }
    }

    /// Coefficient of variation (stddev/mean) of per-shard total replay
    /// time — 0 for perfectly balanced shards, 0 when fewer than two
    /// shards were profiled.
    pub fn imbalance_cv(&self) -> f64 {
        if self.shards.len() < 2 {
            return 0.0;
        }
        let n = self.shards.len() as f64;
        let mean = self.shards.iter().map(|s| s.replay_ns as f64).sum::<f64>() / n;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .shards
            .iter()
            .map(|s| {
                let d = s.replay_ns as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Renders the `*.profile.jsonl` report: one flat object per line, each
    /// carrying a `"row"` discriminator — a `meta` row (with the schema
    /// tag), then `phase`, `shard` and `hist` rows, then one `summary` row.
    pub fn render_report(&self, meta: &ProfileMeta) -> String {
        fn row<'a>(rows: &'a mut Vec<JsonObj>, kind: &str) -> &'a mut JsonObj {
            rows.push(JsonObj::new());
            rows.last_mut().expect("just pushed").str("row", kind)
        }
        let mut rows = Vec::new();
        row(&mut rows, "meta")
            .str("schema", SCHEMA)
            .str("bin", &meta.bin)
            .str("label", &meta.label)
            .str("engine", &meta.engine)
            .u64("shards", meta.shards)
            .u64("seed", meta.seed)
            .u64("events_executed", meta.events_executed)
            .u64("host_cores", meta.host_cores)
            .u64("peak_rss_bytes", meta.peak_rss_bytes)
            .u64("run_wall_ns", self.run_ns);
        for p in Phase::ALL {
            let acc = self.phases[p as usize];
            if acc.calls == 0 && acc.total_ns == 0 {
                continue;
            }
            row(&mut rows, "phase")
                .str("name", p.as_str())
                .u64("calls", acc.calls)
                .u64("total_ns", acc.total_ns)
                .f64("frac", self.frac(p));
        }
        for (s, acc) in self.shards.iter().enumerate() {
            row(&mut rows, "shard")
                .u64("shard", s as u64)
                .u64("blocks", acc.blocks)
                .u64("windows", acc.windows)
                .u64("replay_ns", acc.replay_ns);
        }
        for k in HistKind::ALL {
            let Some(h) = self.hists.get(k as usize).filter(|h| h.count() > 0) else {
                continue;
            };
            row(&mut rows, "hist")
                .str("name", k.as_str())
                .bool("deterministic", k.deterministic())
                .u64("count", h.count())
                .u64("sum", h.sum())
                .u64("min", h.min())
                .u64("p50", h.percentile(50.0))
                .u64("p90", h.percentile(90.0))
                .u64("p99", h.percentile(99.0))
                .u64("max", h.max());
        }
        row(&mut rows, "summary")
            .u64("windows", self.windows)
            .u64("global_events", self.global_events)
            .u64("journal_blocks", self.journal_blocks)
            .u64("journal_ops", self.journal_ops)
            .f64("window_advance_frac", self.frac(Phase::WindowAdvance))
            .f64("cut_exchange_frac", self.frac(Phase::CutExchange))
            .f64("merge_frac", self.frac(Phase::JournalMerge))
            .f64("global_frac", self.frac(Phase::GlobalExec))
            .f64("imbalance_cv", self.imbalance_cv());
        rows.into_iter().map(|o| o.finish() + "\n").collect()
    }
}

/// Schema tag carried by a report's `meta` row.
pub const SCHEMA: &str = "sv2p-profile/v3";

/// Run identity stamped into a report header by the harness.
#[derive(Debug, Clone)]
pub struct ProfileMeta {
    /// Bench binary ("table4", …).
    pub bin: String,
    /// Run label (same derivation as trace-file labels).
    pub label: String,
    /// "single" or "sharded".
    pub engine: String,
    /// Shards the run was partitioned into.
    pub shards: u64,
    /// RNG seed.
    pub seed: u64,
    /// Calendar events executed.
    pub events_executed: u64,
    /// Logical cores on the host.
    pub host_cores: u64,
    /// Process peak RSS (VmHWM) at report time; 0 when unknown.
    pub peak_rss_bytes: u64,
}

/// One parsed report row: a flat field map.
pub type Row = HashMap<String, JsonValue>;

/// A parsed `*.profile.jsonl` report.
#[derive(Debug, Default)]
pub struct ProfileDoc {
    /// The `meta` header row.
    pub meta: Row,
    /// Phase rows, in file order.
    pub phases: Vec<Row>,
    /// Per-shard rows, in shard order.
    pub shards: Vec<Row>,
    /// Histogram rows, in file order.
    pub hists: Vec<Row>,
    /// The trailing summary row.
    pub summary: Row,
}

impl ProfileDoc {
    /// Parses a rendered report, classifying each line by its `"row"`
    /// discriminator and skipping lines that are not flat objects. `None`
    /// unless a `meta` row carries this version's [`SCHEMA`] tag.
    pub fn parse(text: &str) -> Option<ProfileDoc> {
        let mut doc = ProfileDoc::default();
        for obj in text.lines().filter_map(parse_flat) {
            match obj.get("row").and_then(JsonValue::as_str) {
                Some("meta") => doc.meta = obj,
                Some("phase") => doc.phases.push(obj),
                Some("shard") => doc.shards.push(obj),
                Some("hist") => doc.hists.push(obj),
                Some("summary") => doc.summary = obj,
                _ => {}
            }
        }
        (doc.meta.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA)).then_some(doc)
    }
}

/// Extracts the deterministic projection of a rendered report: run
/// identity, phase call counts, per-shard block/window counts, full stats
/// of deterministic histograms, counts alone for timing histograms, and
/// the deterministic summary counters. Two same-seed profiled runs must
/// produce byte-identical projections; every `*_ns`, fraction, and RSS
/// field is stripped.
pub fn deterministic_projection(text: &str) -> Option<String> {
    let doc = ProfileDoc::parse(text)?;
    let get = |row: &Row, k: &str| -> String {
        match row.get(k) {
            Some(JsonValue::U64(v)) => v.to_string(),
            Some(JsonValue::Str(s)) => s.clone(),
            Some(JsonValue::Bool(b)) => b.to_string(),
            _ => "?".into(),
        }
    };
    let mut out = String::new();
    for k in ["bin", "label", "engine", "shards", "seed", "events_executed"] {
        out.push_str(&format!("meta {k}={}\n", get(&doc.meta, k)));
    }
    for p in &doc.phases {
        out.push_str(&format!("phase {} calls={}\n", get(p, "name"), get(p, "calls")));
    }
    for s in &doc.shards {
        out.push_str(&format!(
            "shard {} blocks={} windows={}\n",
            get(s, "shard"),
            get(s, "blocks"),
            get(s, "windows")
        ));
    }
    for h in &doc.hists {
        let det = h.get("deterministic").and_then(|v| v.as_bool()).unwrap_or(false);
        if det {
            out.push_str(&format!(
                "hist {} count={} sum={} min={} p50={} p90={} p99={} max={}\n",
                get(h, "name"),
                get(h, "count"),
                get(h, "sum"),
                get(h, "min"),
                get(h, "p50"),
                get(h, "p90"),
                get(h, "p99"),
                get(h, "max")
            ));
        } else {
            out.push_str(&format!("hist {} count={}\n", get(h, "name"), get(h, "count")));
        }
    }
    for k in ["windows", "global_events", "journal_blocks", "journal_ops"] {
        out.push_str(&format!("summary {k}={}\n", get(&doc.summary, k)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            assert_eq!(Histogram::lower_bound(Histogram::index_of(v)), v, "v={v}");
        }
        h.record(0);
        h.record(63);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 63);
    }

    #[test]
    fn histogram_bucket_boundaries_are_log_linear() {
        // Within any bucket, lower_bound(index_of(v)) <= v and the relative
        // width of the bucket is <= 1/SUB.
        for shift in 6..63u32 {
            for off in [0u64, 1, (1 << shift) / 3, (1 << shift) - 1] {
                let v = (1u64 << shift) + off;
                let i = Histogram::index_of(v);
                let lo = Histogram::lower_bound(i);
                assert!(lo <= v, "v={v} lo={lo}");
                // Next bucket starts beyond v.
                if i + 1 < NBUCKETS {
                    let hi = Histogram::lower_bound(i + 1);
                    assert!(hi > v, "v={v} hi={hi}");
                    let width = hi - lo;
                    assert!(
                        width <= (lo / SUB).max(1),
                        "bucket too wide at v={v}: [{lo},{hi})"
                    );
                }
            }
        }
        // Monotone bucket boundaries across the whole array.
        let mut prev = 0u64;
        for i in 1..NBUCKETS {
            let b = Histogram::lower_bound(i);
            assert!(b > prev, "non-monotone at {i}: {b} after {prev}");
            prev = b;
        }
        assert_eq!(Histogram::index_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        // ~3% quantization tolerance.
        assert!((470..=530).contains(&p50), "p50={p50}");
        assert!((950..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 17, 999, 5_000_000, 12] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 250_000, 7] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::off();
        p.phase_add(Phase::Pop, 100);
        p.record(HistKind::CalendarLen, 5);
        p.shard_sample(0, 10, 1);
        p.add_run_ns(1000);
        assert_eq!(p.run_ns(), 0);
        assert_eq!(p.phase_calls(Phase::Pop), 0);
        assert!(p.shard_accs().is_empty());
    }

    fn sample_profiler() -> Profiler {
        let mut p = Profiler::new(true);
        for _ in 0..10 {
            p.phase_add(Phase::WindowAdvance, 400);
            p.phase_add(Phase::CutExchange, 100);
        }
        p.phase_add(Phase::WorkerReplay, 4_000);
        p.phase_add(Phase::JournalMerge, 500);
        p.record(HistKind::JournalBlockOps, 3);
        p.record(HistKind::ShardReplayNs, 3_000);
        p.shard_sample(0, 3_000, 6);
        p.shard_sample(1, 1_000, 4);
        p.windows = 1;
        p.journal_blocks = 10;
        p.journal_ops = 30;
        p.add_run_ns(10_000);
        p
    }

    #[test]
    fn report_round_trips_and_projects() {
        let p = sample_profiler();
        let meta = ProfileMeta {
            bin: "unit".into(),
            label: "unit.SwitchV2P".into(),
            engine: "sharded".into(),
            shards: 2,
            seed: 7,
            events_executed: 10,
            host_cores: 4,
            peak_rss_bytes: 1 << 20,
        };
        let text = p.render_report(&meta);
        let doc = ProfileDoc::parse(&text).expect("parses");
        assert_eq!(doc.meta.get("bin").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(doc.shards.len(), 2);
        assert!(doc.phases.iter().any(|r| r
            .get("name")
            .and_then(|v| v.as_str())
            == Some("worker_replay")));
        assert!(!text.contains("barrier"), "a retired phase has no row");
        let cv = doc
            .summary
            .get("imbalance_cv")
            .and_then(|v| v.as_f64())
            .expect("cv");
        assert!(cv > 0.4 && cv < 0.6, "cv={cv}"); // (3000,1000): cv = 0.5
        let proj = deterministic_projection(&text).expect("projects");
        assert!(proj.contains("phase window_advance calls=10"));
        assert!(proj.contains("hist journal_block_ops count=1 sum=3"));
        assert!(
            proj.contains("hist shard_replay_ns count=1\n"),
            "timing hist keeps count only"
        );
        assert!(!proj.contains("_ns="), "no wall-clock leaks: {proj}");
    }

    #[test]
    fn imbalance_cv_zero_for_balanced_or_single() {
        let mut p = Profiler::new(true);
        p.shard_sample(0, 500, 1);
        assert_eq!(p.imbalance_cv(), 0.0, "one shard has no imbalance");
        p.shard_sample(1, 500, 1);
        assert_eq!(p.imbalance_cv(), 0.0, "equal shards have cv 0");
    }
}
