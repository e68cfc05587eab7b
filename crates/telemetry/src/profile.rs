//! Engine self-profiling: phase accounting, log-linear histograms, and the
//! `*.profile.jsonl` report.
//!
//! What the engine spends per event class is invisible to virtual-time
//! telemetry; this module attributes the wall-clock so that cost is a
//! tracked regression surface. The emission points live in `sv2p-netsim`
//! (the run loop's pop and dispatch) and the `--profile DIR` plumbing in
//! `sv2p-bench`.
//!
//! # Determinism segregation rule
//!
//! A profile report mixes two kinds of data and keeps them strictly apart:
//!
//! * **Deterministic artifacts** — call counts and every histogram (each
//!   is over a *simulation-state* quantity: calendar and arena
//!   occupancy). Two same-seed runs agree on these byte-for-byte.
//! * **Wall-clock timings** — every `*_ns` total and every fraction.
//!   `Instant`-based values never feed back into simulation state; they
//!   exist only in this side channel, so a profiled run's telemetry and
//!   summaries are byte-identical to an unprofiled run's.
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
    /// The first block is the engine's run loop — `Pop` plus one class per
    /// event handler, so "telemetry cost" is visible as the
    /// `TelemetrySample` class and per-packet work is split by event kind.
    /// The second block is retired and reads 0: it timed the lookahead
    /// windows of a parallel engine that is gone. The names stay because
    /// `benchmark/` declares them; they leave with it (ROADMAP N1).
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
        /// `netsim.link_free_ns`; it leaves with them (ROADMAP N1).
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
        /// Retired, reads 0 (window-boundary computation).
        WindowAdvance => "window_advance",
        /// Retired, reads 0 (cut-packet exchange between windows).
        CutExchange => "cut_exchange",
        /// Retired, reads 0 (journaled replays of a window).
        WorkerReplay => "worker_replay",
        /// Retired, reads 0 (the wait at a barrier between windows).
        BarrierWait => "barrier_wait",
        /// Retired, reads 0 (the merge of the replay journals).
        JournalMerge => "journal_merge",
        /// Retired, reads 0 (global events between windows; they are
        /// charged to their own classes).
        GlobalExec => "global_exec",
    }
}

wire_names! {
    /// A named histogram slot in the profiler. Every one is over
    /// simulation state, sampled every 1024 executed events, so it is
    /// deterministic.
    HistKind {
        /// Pending events in the calendar at each sample point.
        CalendarLen => "calendar_len",
        /// Events parked in the calendar's overflow heap — the only `O(log n)`
        /// part of the timing wheel — at each sample point.
        CalendarOverflow => "calendar_overflow",
        /// Live packets in the arena at each sample point — the arena
        /// high-water trajectory, not just its peak.
        ArenaLive => "arena_live",
    }
}

/// Per-phase accumulator: wall-clock total plus a deterministic call count.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAcc {
    calls: u64,
    total_ns: u64,
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

    /// Retired, reads 0: the imbalance of parallel window replays, which
    /// are gone. The name stays because `benchmark/` still reports it; it
    /// leaves with that (ROADMAP N1).
    pub fn imbalance_cv(&self) -> f64 {
        0.0
    }

    /// Renders the `*.profile.jsonl` report: one flat object per line, each
    /// carrying a `"row"` discriminator — a `meta` row (with the schema
    /// tag), then `phase` and `hist` rows, then one `summary` row that
    /// counts them, so a truncated report is told from a whole one.
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
            .u64("seed", meta.seed)
            .u64("events_executed", meta.events_executed)
            .u64("host_cores", meta.host_cores)
            .u64("peak_rss_bytes", meta.peak_rss_bytes)
            .u64("run_wall_ns", self.run_ns);
        let mut phases = 0;
        for p in Phase::ALL {
            let acc = self.phases[p as usize];
            if acc.calls == 0 && acc.total_ns == 0 {
                continue;
            }
            phases += 1;
            row(&mut rows, "phase")
                .str("name", p.as_str())
                .u64("calls", acc.calls)
                .u64("total_ns", acc.total_ns)
                .f64("frac", self.frac(p));
        }
        let mut hists = 0;
        for k in HistKind::ALL {
            let Some(h) = self.hists.get(k as usize).filter(|h| h.count() > 0) else {
                continue;
            };
            hists += 1;
            row(&mut rows, "hist")
                .str("name", k.as_str())
                .u64("count", h.count())
                .u64("sum", h.sum())
                .u64("min", h.min())
                .u64("p50", h.percentile(50.0))
                .u64("p90", h.percentile(90.0))
                .u64("p99", h.percentile(99.0))
                .u64("max", h.max());
        }
        row(&mut rows, "summary")
            .u64("phases", phases)
            .u64("hists", hists);
        rows.into_iter().map(|o| o.finish() + "\n").collect()
    }
}

/// Schema tag carried by a report's `meta` row.
pub const SCHEMA: &str = "sv2p-profile/v4";

/// Run identity stamped into a report header by the harness.
#[derive(Debug, Clone)]
pub struct ProfileMeta {
    /// Bench binary ("table4", …).
    pub bin: String,
    /// Run label (same derivation as trace-file labels).
    pub label: String,
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
    /// Histogram rows, in file order.
    pub hists: Vec<Row>,
    /// The trailing summary row: how many phase and hist rows precede it.
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
                Some("hist") => doc.hists.push(obj),
                Some("summary") => doc.summary = obj,
                _ => {}
            }
        }
        (doc.meta.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA)).then_some(doc)
    }
}

/// Extracts the deterministic projection of a rendered report: run
/// identity, phase call counts and the full stats of every histogram. Two
/// same-seed profiled runs must produce byte-identical projections, so
/// every `*_ns`, fraction and RSS field is left out.
pub fn deterministic_projection(text: &str) -> Option<String> {
    let doc = ProfileDoc::parse(text)?;
    let get = |row: &Row, k: &str| -> String {
        match row.get(k) {
            Some(JsonValue::U64(v)) => v.to_string(),
            Some(JsonValue::Str(s)) => s.clone(),
            _ => "?".into(),
        }
    };
    let mut out = String::new();
    for k in ["bin", "label", "seed", "events_executed"] {
        out.push_str(&format!("meta {k}={}\n", get(&doc.meta, k)));
    }
    for p in &doc.phases {
        out.push_str(&format!(
            "phase {} calls={}\n",
            get(p, "name"),
            get(p, "calls")
        ));
    }
    for h in &doc.hists {
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
        p.add_run_ns(1000);
        assert_eq!(p.run_ns(), 0);
        assert_eq!(p.phase_calls(Phase::Pop), 0);
    }

    fn report(p: &Profiler, host_cores: u64) -> String {
        p.render_report(&ProfileMeta {
            bin: "unit".into(),
            label: "unit.SwitchV2P".into(),
            seed: 7,
            events_executed: 10,
            host_cores,
            peak_rss_bytes: 1 << 20,
        })
    }

    #[test]
    fn report_round_trips_and_projects() {
        let mut p = Profiler::new(true);
        for _ in 0..10 {
            p.phase_add(Phase::Pop, 400);
            p.phase_add(Phase::LinkArrival, 100);
        }
        p.record(HistKind::CalendarLen, 3);
        p.add_run_ns(10_000);
        let text = report(&p, 2);
        let doc = ProfileDoc::parse(&text).expect("parses");
        assert_eq!(doc.meta.get("bin").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!((doc.phases.len(), doc.hists.len()), (2, 1));
        assert_eq!(doc.summary.get("phases").and_then(|v| v.as_u64()), Some(2));
        assert!(!text.contains("barrier"), "a retired phase has no row");
        let proj = deterministic_projection(&text).expect("projects");
        assert!(proj.contains("phase pop calls=10"));
        assert!(proj.contains("hist calendar_len count=1 sum=3"));
        assert!(!proj.contains("_ns="), "no wall-clock leaks: {proj}");
        assert_eq!(
            deterministic_projection(&report(&p, 1)).as_deref(),
            Some(proj.as_str()),
            "the host is not part of the projection"
        );
    }
}
