//! Shared experiment machinery.

use sv2p_metrics::RunSummary;
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::{FxHashMap, SimDuration, SimTime};
use sv2p_topology::{FatTreeConfig, SwitchRole};
use sv2p_traces::{FlowProfile, TraceFlow};
use sv2p_transport::UdpSchedule;
use sv2p_vnet::{Migration, Strategy};
use switchv2p::{InvalidationMode, SwitchV2P, SwitchV2PConfig};

use sv2p_baselines::{
    Bluebird, Controller, ControllerDriver, Direct, GwCache, LocalLearning, NoCache, OnDemand,
};

/// Which translation scheme to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// Pure gateway (baseline of every improvement factor).
    NoCache,
    /// §3.1 strawman.
    LocalLearning,
    /// Sailfish-style gateway-ToR caches.
    GwCache,
    /// Bluebird route caches.
    Bluebird,
    /// VL2/Hoverboard immediate host offload.
    OnDemand,
    /// Preprogrammed host-driven.
    Direct,
    /// Centralized ILP allocation (driven by [`run_controller_spec`]).
    Controller,
    /// The paper's system.
    SwitchV2P,
    /// SwitchV2P with a custom protocol configuration (ablations).
    SwitchV2PWith(SwitchV2PConfig),
}

impl StrategyKind {
    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::NoCache => Box::new(NoCache),
            StrategyKind::LocalLearning => Box::new(LocalLearning),
            StrategyKind::GwCache => Box::new(GwCache),
            StrategyKind::Bluebird => Box::new(Bluebird),
            StrategyKind::OnDemand => Box::new(OnDemand),
            StrategyKind::Direct => Box::new(Direct),
            StrategyKind::Controller => Box::new(Controller),
            StrategyKind::SwitchV2P => Box::new(SwitchV2P::default()),
            StrategyKind::SwitchV2PWith(cfg) => Box::new(SwitchV2P::new(cfg)),
        }
    }

    /// Display name: the built scheme's [`Strategy::name`].
    pub fn name(self) -> &'static str {
        self.build().name()
    }

    /// True if the scheme's behavior depends on the cache-size axis: some
    /// switch role has a [`Strategy::cache_weight`] above 0 (cache-free
    /// baselines are run once per sweep).
    pub fn cache_sensitive(self) -> bool {
        let s = self.build();
        SwitchRole::ALL
            .into_iter()
            .any(|role| s.cache_weight(role) > 0.0)
    }

    /// The §5.1 comparison set (Figures 5–6).
    pub fn figure5_set() -> Vec<StrategyKind> {
        vec![
            StrategyKind::NoCache,
            StrategyKind::LocalLearning,
            StrategyKind::GwCache,
            StrategyKind::Bluebird,
            StrategyKind::OnDemand,
            StrategyKind::Direct,
            StrategyKind::SwitchV2P,
        ]
    }

    /// The scheme's unique identity in sweep outputs. Unlike [`Self::name`]
    /// (which every `SwitchV2PWith` variant shares, by design — manifests
    /// and trace labels group by display name), the id carries a variant
    /// discriminator so two differently-configured SwitchV2P jobs in one
    /// sweep never collide.
    pub fn id(&self) -> StrategyId {
        let variant = match self {
            StrategyKind::SwitchV2PWith(cfg) => switchv2p_variant(cfg),
            _ => String::new(),
        };
        StrategyId {
            name: self.name(),
            variant,
        }
    }
}

/// The knobs of `cfg` that differ from the paper's default configuration,
/// as a compact comma-joined label ("" for the default itself).
fn switchv2p_variant(cfg: &SwitchV2PConfig) -> String {
    let d = SwitchV2PConfig::default();
    let mut parts: Vec<String> = Vec::new();
    if cfg.learning_packets != d.learning_packets {
        parts.push("no-learning".into());
    }
    if cfg.spillover != d.spillover {
        parts.push("no-spillover".into());
    }
    if cfg.spill_only_active != d.spill_only_active {
        parts.push("spill-active-only".into());
    }
    if cfg.promotion != d.promotion {
        parts.push("no-promotion".into());
    }
    if cfg.invalidation != d.invalidation {
        parts.push(
            match cfg.invalidation {
                InvalidationMode::None => "no-invalidations",
                InvalidationMode::NoTimestampVector => "no-ts-vector",
                InvalidationMode::TimestampVector => "ts-vector",
            }
            .into(),
        );
    }
    if cfg.layer_weights != d.layer_weights {
        let (t, s, c) = cfg.layer_weights;
        parts.push(format!("weights={t}-{s}-{c}"));
    }
    parts.join(",")
}

/// Unique identity of a scheme within a sweep: display name plus a variant
/// discriminator for non-default `SwitchV2PWith` configurations. This is
/// the key [`FigureTable`] joins rows on — name-based joins aliased every
/// SwitchV2P variant onto one row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StrategyId {
    /// Display name shared by all variants of a scheme.
    pub name: &'static str,
    /// Non-default knobs, or "" for a default configuration.
    pub variant: String,
}

impl std::fmt::Display for StrategyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.variant.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}[{}]", self.name, self.variant)
        }
    }
}

/// One experiment to run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Topology.
    pub topology: FatTreeConfig,
    /// VMs per server.
    pub vms_per_server: u32,
    /// The workload.
    pub flows: Vec<TraceFlow>,
    /// Scheme under test.
    pub strategy: StrategyKind,
    /// Aggregate cache entries across all caching switches.
    pub cache_entries: usize,
    /// Migrations to apply (VM index, time µs, "move to last server").
    pub migrations: Vec<(usize, u64)>,
    /// Continuous-churn scenario: expanded against the placement at build
    /// time into tenant traffic, migration waves and timeline marks.
    pub churn: Option<ChurnSpec>,
    /// Gateway bounded-queue capacity (0 = the legacy infinitely parallel
    /// gateway; >0 turns on the single-server overload model that sheds).
    pub gateway_queue_cap: u32,
    /// Hard simulation-time stop in µs (guards overload configurations
    /// where TCP would retry for a very long simulated time).
    pub end_of_time_us: Option<u64>,
    /// RNG seed.
    pub seed: u64,
    /// Pod shards the engine is cut into (1 = none; more is the
    /// equivalence oracle, with byte-identical results). No bench bin sets
    /// it; `benchmark/`'s two-shard cell does.
    pub shards: u16,
    /// Engine self-profiling (wall-clock phase timers + occupancy
    /// histograms; simulation output stays byte-identical). Defaults to
    /// whether the process was started with `--profile DIR`.
    pub profile: bool,
    /// Short run label (dataset, variant, sweep point); names the run in
    /// manifests and trace files. May be empty.
    pub label: String,
}

impl ExperimentSpec {
    /// Starts a spec from its two mandatory inputs; everything else has the
    /// historical defaults (80 VMs/server, no flows, no cache, no
    /// migrations, no time limit, seed 1, empty label, one shard). This is
    /// the only way bench bins construct specs — field-struct updates on a
    /// cloned base silently kept stale labels and seeds when new fields
    /// grew in.
    pub fn builder(topology: FatTreeConfig, strategy: StrategyKind) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder {
            spec: ExperimentSpec {
                topology,
                vms_per_server: 80,
                flows: Vec::new(),
                strategy,
                cache_entries: 0,
                migrations: Vec::new(),
                churn: None,
                gateway_queue_cap: 0,
                end_of_time_us: None,
                seed: 1,
                shards: 1,
                profile: crate::cli::profile_dir().is_some(),
                label: String::new(),
            },
        }
    }

    /// Builds the engine (one shard or several, per the spec) and
    /// loads the workload. Tracing is enabled when the process was started
    /// with `--telemetry DIR` (see [`crate::cli`]).
    pub fn build(&self) -> Engine {
        let strategy = self.strategy.build();
        let cfg = SimConfig {
            seed: self.seed,
            gateway_queue_cap: self.gateway_queue_cap,
            record_traffic_matrix: self.strategy == StrategyKind::Controller,
            end_of_time: self.end_of_time_us.map(SimTime::from_micros),
            telemetry: crate::cli::telemetry_dir().is_some(),
            profile: self.profile,
        };
        let mut sim = Engine::sharded(
            cfg,
            &self.topology,
            strategy.as_ref(),
            self.cache_entries,
            self.vms_per_server,
            self.shards,
        );
        let n_vms = sim.placement().len();
        sim.add_flows(to_flow_specs(&self.flows, n_vms));
        // Every migration moves its VM to the last server.
        let target = sim.topology().servers().last().expect("servers exist");
        for &(vm, at_us) in &self.migrations {
            let vip = sim.placement().vip_of(vm);
            let at = SimTime::from_micros(at_us);
            sim.add_migration(Migration::new(at, vip, target.id, target.pip));
        }
        if let Some(churn) = &self.churn {
            let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
            let plan = ChurnPlan::generate(churn, sim.placement(), &servers);
            sim.apply_churn_plan(&plan);
        }
        sim
    }
}

/// Builder returned by [`ExperimentSpec::builder`]; finish with
/// [`Self::build`].
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpecBuilder {
    /// VMs per server (default 80, the paper's FT8-10K density).
    pub fn vms_per_server(mut self, n: u32) -> Self {
        self.spec.vms_per_server = n;
        self
    }

    /// The workload.
    pub fn flows(mut self, flows: Vec<TraceFlow>) -> Self {
        self.spec.flows = flows;
        self
    }

    /// Scheme under test (overrides the one given to `builder`; sweeps use
    /// this to stamp per-job strategies onto a shared base).
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.spec.strategy = s;
        self
    }

    /// Aggregate cache entries across all caching switches.
    pub fn cache_entries(mut self, n: usize) -> Self {
        self.spec.cache_entries = n;
        self
    }

    /// Migrations to apply (VM index, time µs, "move to last server").
    pub fn migrations(mut self, m: Vec<(usize, u64)>) -> Self {
        self.spec.migrations = m;
        self
    }

    /// Continuous-churn scenario to expand and register at build time.
    pub fn churn(mut self, spec: ChurnSpec) -> Self {
        self.spec.churn = Some(spec);
        self
    }

    /// Gateway bounded-queue capacity (default 0 = legacy unbounded model).
    pub fn gateway_queue_cap(mut self, cap: u32) -> Self {
        self.spec.gateway_queue_cap = cap;
        self
    }

    /// Hard simulation-time stop in µs.
    pub fn end_of_time_us(mut self, us: u64) -> Self {
        self.spec.end_of_time_us = Some(us);
        self
    }

    /// RNG seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Shard count (default 1): more runs the equivalence oracle
    /// ([`Engine::sharded`]).
    pub fn shards(mut self, shards: u16) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Engine self-profiling override (default: whether the process ran
    /// with `--profile DIR`).
    pub fn profile(mut self, on: bool) -> Self {
        self.spec.profile = on;
        self
    }

    /// Short run label for manifests and trace files.
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.spec.label = l.into();
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> ExperimentSpec {
        self.spec
    }
}

/// Converts trace flows to simulator flow specs, wrapping VM indices into
/// the placement size (traces generated for a larger pool replay fine on a
/// smaller instance).
pub fn to_flow_specs(flows: &[TraceFlow], n_vms: usize) -> Vec<FlowSpec> {
    flows
        .iter()
        .filter_map(|f| {
            let src = f.src_vm % n_vms;
            let dst = f.dst_vm % n_vms;
            if src == dst {
                return None;
            }
            let start = SimTime::from_nanos(f.start_ns);
            let kind = match f.profile {
                FlowProfile::Tcp { bytes } => FlowKind::Tcp { bytes },
                FlowProfile::UdpCbr {
                    rate_bps,
                    duration_ns,
                    payload,
                } => FlowKind::Udp {
                    schedule: UdpSchedule::cbr(
                        start,
                        SimDuration::from_nanos(duration_ns),
                        rate_bps,
                        payload,
                    ),
                },
                FlowProfile::UdpBurst { count, payload } => FlowKind::Udp {
                    schedule: UdpSchedule::burst(start, count, payload, 100_000_000_000),
                },
            };
            Some(FlowSpec {
                src_vm: src,
                dst_vm: dst,
                start,
                kind,
            })
        })
        .collect()
}

/// Runs one experiment to completion, recording a run manifest (and trace
/// files when `--telemetry` is on) via [`crate::cli::record_run`].
pub fn run_spec(spec: &ExperimentSpec) -> RunSummary {
    let mut sim = spec.build();
    let start = std::time::Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let summary = sim.summary();
    crate::cli::record_run(spec, &sim, &summary, wall);
    summary
}

/// Runs a [`StrategyKind::Controller`] experiment and records it like
/// [`run_spec`]. Every `period` of virtual time the controller halts the
/// run, plans a placement from the traffic matrix observed since the last
/// epoch, and replaces the switches' installed entries with it.
pub fn run_controller_spec(spec: &ExperimentSpec, period: SimDuration) -> RunSummary {
    let mut sim = spec.build();
    let switch_nodes: Vec<_> = sim.topology().switches().map(|n| n.id).collect();
    let driver = ControllerDriver {
        capacity_per_switch: (spec.cache_entries / switch_nodes.len()).max(1),
    };
    let start = std::time::Instant::now();
    let mut t = SimTime::ZERO;
    loop {
        t += period;
        sim.run_until(t);
        if sim.flows_outstanding() == 0 {
            break;
        }
        let plan = driver.plan(
            sim.topology(),
            sim.routing(),
            sim.gateway_directory(),
            sim.placement(),
            sim.traffic_matrix(),
            &switch_nodes,
        );
        sim.clear_traffic_matrix();
        for &node in &switch_nodes {
            sim.install_cache_entries(node, true, &[]);
        }
        for (node, entries) in plan {
            sim.install_cache_entries(node, false, &entries);
        }
        if t > SimTime::from_millis(200) {
            break; // runaway guard
        }
    }
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let summary = sim.summary();
    crate::cli::record_run(spec, &sim, &summary, wall);
    summary
}

/// One output row of a figure: scheme × cache size with the three panels
/// (hit rate, FCT improvement, first-packet improvement vs NoCache).
#[derive(Debug, Clone)]
pub struct Row {
    /// Unique scheme identity (variant-aware; see [`StrategyId`]).
    pub strategy: StrategyId,
    /// Cache size as a fraction of the active address space.
    pub cache_frac: f64,
    /// The run's summary.
    pub summary: RunSummary,
}

/// The result of a [`sweep`]: rows in job order, plus an O(1) join index
/// keyed by `(StrategyId, cache_frac)` — by identity, never by display
/// name, so `SwitchV2P` and `SwitchV2PWith(..)` variants stay distinct.
#[derive(Debug, Clone)]
pub struct FigureTable {
    rows: Vec<Row>,
    index: FxHashMap<(StrategyId, u64), usize>,
}

impl FigureTable {
    /// Indexes `rows`. Later duplicates of a `(strategy, frac)` key win,
    /// but sweeps never produce duplicates.
    pub fn from_rows(rows: Vec<Row>) -> Self {
        let mut index = FxHashMap::default();
        for (i, r) in rows.iter().enumerate() {
            index.insert((r.strategy.clone(), r.cache_frac.to_bits()), i);
        }
        FigureTable { rows, index }
    }

    /// The row for `strategy` at cache fraction `frac`, if that cell ran.
    pub fn cell(&self, strategy: &StrategyId, frac: f64) -> Option<&Row> {
        self.index
            .get(&(strategy.clone(), frac.to_bits()))
            .map(|&i| &self.rows[i])
    }

    /// All rows, in job order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Distinct strategies in first-appearance order.
    pub fn strategies(&self) -> Vec<StrategyId> {
        let mut out: Vec<StrategyId> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.strategy) {
                out.push(r.strategy.clone());
            }
        }
        out
    }
}

/// Runs the Figure-5-style sweep: `strategies × cache_fracs`, reusing a
/// single run for cache-insensitive baselines. `active_addresses` converts
/// fractions to entry counts. Runs fan out over threads (bounded by
/// available parallelism).
pub fn sweep(
    base: &ExperimentSpec,
    strategies: &[StrategyKind],
    cache_fracs: &[f64],
    active_addresses: usize,
) -> FigureTable {
    // Materialize the distinct (strategy, frac, entries) jobs.
    let mut jobs: Vec<(StrategyKind, f64, usize)> = Vec::new();
    for &s in strategies {
        if s.cache_sensitive() {
            for &f in cache_fracs {
                let entries = ((f * active_addresses as f64).round() as usize).max(1);
                jobs.push((s, f, entries));
            }
        } else {
            jobs.push((s, 0.0, 0));
        }
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<Row>>> = (0..jobs.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (strategy, frac, entries) = jobs[i];
                let mut spec = base.clone();
                spec.strategy = strategy;
                spec.cache_entries = entries;
                let summary = run_spec(&spec);
                *results[i].lock().expect("sweep lock") = Some(Row {
                    strategy: strategy.id(),
                    cache_frac: frac,
                    summary,
                });
            });
        }
    });

    let rows: Vec<Row> = results
        .into_iter()
        .map(|r| r.into_inner().expect("sweep lock").expect("job ran"))
        .collect();

    // Expand cache-insensitive runs to every requested fraction so tables
    // are rectangular. Each row is paired with the job that produced it —
    // re-finding the kind by display name aliased SwitchV2P variants.
    let mut expanded = Vec::new();
    for (row, &(kind, _, _)) in rows.into_iter().zip(jobs.iter()) {
        if kind.cache_sensitive() {
            expanded.push(row);
        } else {
            for &f in cache_fracs {
                expanded.push(Row {
                    cache_frac: f,
                    ..row.clone()
                });
            }
        }
    }
    FigureTable::from_rows(expanded)
}

/// Prints the three Figure-5 panels (hit rate, FCT improvement ×,
/// first-packet improvement ×) normalized by NoCache.
pub fn print_figure5_panels(title: &str, table: &FigureTable, cache_fracs: &[f64]) {
    let nocache = table
        .rows()
        .iter()
        .find(|r| r.strategy.name == "NoCache")
        .expect("NoCache row present");
    let base_fct = nocache.summary.avg_fct_us;
    let base_first = nocache.summary.avg_first_packet_latency_us;

    let schemes = table.strategies();

    for (panel, f) in [
        (
            "hit rate (fraction of packets not reaching gateways)",
            Box::new(|r: &Row| format!("{:.3}", r.summary.hit_rate)) as Box<dyn Fn(&Row) -> String>,
        ),
        (
            "avg FCT improvement over NoCache (x)",
            Box::new(move |r: &Row| format!("{:.2}", base_fct / r.summary.avg_fct_us.max(1e-9))),
        ),
        (
            "first-packet latency improvement over NoCache (x)",
            Box::new(move |r: &Row| {
                format!(
                    "{:.2}",
                    base_first / r.summary.avg_first_packet_latency_us.max(1e-9)
                )
            }),
        ),
    ] {
        println!("\n{title} — {panel}");
        print!("{:<14}", "cache size");
        for &frac in cache_fracs {
            print!("{:>10}", format!("{}%", (frac * 100.0).round()));
        }
        println!();
        for scheme in &schemes {
            print!("{:<14}", scheme.to_string());
            for &frac in cache_fracs {
                match table.cell(scheme, frac) {
                    Some(r) => print!("{:>10}", f(r)),
                    None => print!("{:>10}", "-"),
                }
            }
            println!();
        }
    }

    // Per-cause drop accounting, so congestion losses are never confused
    // with injected faults when a figure is run under a fault plan.
    let any_drops = table.rows().iter().any(|r| r.summary.packets_dropped > 0);
    if any_drops {
        println!("\n{title} — data-packet drops by cause");
        for r in table.rows() {
            println!(
                "{:<14} {:>6}% cache  {}",
                r.strategy.to_string(),
                (r.cache_frac * 100.0).round(),
                drop_breakdown(&r.summary)
            );
        }
    }
}

/// Formats a summary's per-cause drop counters on one line.
pub fn drop_breakdown(s: &RunSummary) -> String {
    format!(
        "drops total {} (queue {}, unroutable {}, blackout {}, loss {}, shed {})",
        s.packets_dropped,
        s.drops_queue,
        s.drops_unroutable,
        s.drops_blackout,
        s.drops_loss,
        s.drops_shed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_telemetry::EventKind;
    use sv2p_topology::NodeId;
    use sv2p_traces::{hadoop, HadoopConfig};
    use sv2p_vnet::{HostAgent, MisdeliveryPolicy, SwitchAgent};

    fn tiny_spec(strategy: StrategyKind, cache: usize) -> ExperimentSpec {
        ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), strategy)
            .vms_per_server(2)
            .flows(hadoop(&HadoopConfig {
                vms: 256,
                flows: 200,
                hosts: 128,
                ..Default::default()
            }))
            .cache_entries(cache)
            .label("unit")
            .build()
    }

    #[test]
    fn builder_defaults_match_historical_spec() {
        let s =
            ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), StrategyKind::NoCache).build();
        assert_eq!(s.vms_per_server, 80);
        assert!(s.flows.is_empty() && s.migrations.is_empty());
        assert_eq!(s.cache_entries, 0);
        assert!(s.churn.is_none());
        assert_eq!(s.gateway_queue_cap, 0, "legacy gateway model by default");
        assert_eq!(s.end_of_time_us, None);
        assert_eq!(s.seed, 1);
        assert_eq!(s.shards, 1, "one shard by default");
        assert!(!s.profile, "no --profile flag means profiling off");
        assert!(s.label.is_empty());
    }

    /// `benchmark/`'s two-shard cell reaches the oracle only through here.
    #[test]
    fn the_shard_count_reaches_the_engine() {
        let spec = |shards| {
            ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), StrategyKind::NoCache)
                .vms_per_server(2)
                .shards(shards)
                .build()
        };
        assert_eq!(spec(1).build().shards(), 1);
        // Two pods: the partitioner clamps four to the pods plus the
        // core's shard.
        assert_eq!(spec(4).build().shards(), 3);
    }

    /// Figure 5's set, Controller, and the SwitchV2P variants that
    /// `ablations` and `table4` run.
    fn every_kind() -> impl Iterator<Item = StrategyKind> {
        let variants = [
            SwitchV2PConfig::without_learning_packets(),
            SwitchV2PConfig::without_spillover(),
            SwitchV2PConfig::without_promotion(),
            SwitchV2PConfig::tor_only(),
            SwitchV2PConfig {
                spill_only_active: true,
                ..Default::default()
            },
            SwitchV2PConfig::tor_heavy(),
            SwitchV2PConfig::core_heavy(),
            SwitchV2PConfig::without_invalidations(),
            SwitchV2PConfig::without_timestamp_vector(),
        ];
        StrategyKind::figure5_set()
            .into_iter()
            .chain([StrategyKind::Controller])
            .chain(variants.map(StrategyKind::SwitchV2PWith))
    }

    /// Hadoop's endpoints and arrivals, each flow cut to 20 KB, in two
    /// waves 3 ms apart: the second finds Bluebird's insertions, 2 ms after
    /// the first wave's misses, in its caches.
    fn two_waves() -> Vec<TraceFlow> {
        let wave: Vec<TraceFlow> = hadoop(&HadoopConfig {
            vms: 256,
            flows: 48,
            hosts: 128,
            ..Default::default()
        })
        .into_iter()
        .map(|f| TraceFlow {
            profile: FlowProfile::Tcp {
                bytes: f.bytes().min(20_000),
            },
            ..f
        })
        .collect();
        let later = wave.iter().map(|f| TraceFlow {
            start_ns: f.start_ns + 3_000_000,
            ..*f
        });
        wave.iter().copied().chain(later).collect()
    }

    /// Where a scheme caches is stated once, by `Strategy::cache_weight`:
    /// the sweep's cache axis follows it, a switch whose role weighs 0
    /// holds nothing after a run with a budget, and every data-plane
    /// learner fills some switch.
    #[test]
    fn cache_weight_alone_says_where_a_scheme_caches() {
        let flows = two_waves();
        for kind in every_kind() {
            let (s, id) = (kind.build(), kind.id());
            let weighs = |role: SwitchRole| s.cache_weight(role) > 0.0;
            assert_eq!(
                kind.cache_sensitive(),
                SwitchRole::ALL.into_iter().any(weighs),
                "{id}"
            );
            let spec = ExperimentSpec {
                flows: flows.clone(),
                ..tiny_spec(kind, 128)
            };
            let mut sim = spec.build();
            sim.run();
            let mut held = 0;
            for (sw, (_, entries)) in sim.topology().switches().zip(sim.cache_occupancy()) {
                let role = sim.roles().role(sw.id).expect("switch role");
                assert!(
                    weighs(role) || entries == 0,
                    "{id}: {entries} at a {role:?}"
                );
                held += entries;
            }
            // Controller's lines are filled only by its driver.
            let learns = kind.cache_sensitive() && kind != StrategyKind::Controller;
            assert_eq!(held > 0, learns, "{id} holds {held} entries");
        }
    }

    /// A scheme, recording every role the engine asks it for an agent.
    struct Asked {
        inner: Box<dyn Strategy>,
        roles: std::cell::RefCell<Vec<SwitchRole>>,
    }

    impl Strategy for Asked {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn cache_weight(&self, role: SwitchRole) -> f64 {
            self.inner.cache_weight(role)
        }
        fn make_switch_agent(&self, role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
            self.roles.borrow_mut().push(role);
            self.inner.make_switch_agent(role, lines)
        }
        fn make_host_agent(&self) -> Box<dyn HostAgent> {
            self.inner.make_host_agent()
        }
        fn misdelivery_policy(&self) -> MisdeliveryPolicy {
            self.inner.misdelivery_policy()
        }
    }

    /// The engine places agents, not the schemes: it asks a scheme for one
    /// only where the role weighs above 0, and a switch anywhere else just
    /// forwards — over a traced run it holds nothing and looks up, learns,
    /// invalidates and serves nothing.
    #[test]
    fn a_switch_whose_role_weighs_0_leaves_packets_untouched() {
        let flows = two_waves();
        for kind in every_kind() {
            let asked = Asked {
                inner: kind.build(),
                roles: Default::default(),
            };
            let weighs = |role: SwitchRole| asked.cache_weight(role) > 0.0;
            let cfg = SimConfig {
                telemetry: true,
                ..SimConfig::default()
            };
            let mut sim = Engine::new(cfg, &FatTreeConfig::scaled_ft8(2), &asked, 128, 2);
            let id = kind.id();
            assert!(
                asked.roles.borrow().iter().all(|&r| weighs(r)),
                "{id}: {:?}",
                asked.roles
            );
            sim.add_flows(to_flow_specs(&flows, sim.placement().len()));
            sim.run();
            let idle = |node: u32| sim.roles().role(NodeId(node)).is_some_and(|r| !weighs(r));
            for (sw, (_, entries)) in sim.topology().switches().zip(sim.cache_occupancy()) {
                assert!(!idle(sw.id.0) || entries == 0, "{id}: {entries} at {sw:?}");
            }
            let touched = sim.tracer().events().find(|e| {
                e.node.is_some_and(idle)
                    && !matches!(e.kind, EventKind::SwitchIngress | EventKind::Drop)
            });
            assert!(touched.is_none(), "{id}: {touched:?}");
        }
    }

    #[test]
    fn run_spec_completes_flows() {
        let s = run_spec(&tiny_spec(StrategyKind::SwitchV2P, 128));
        assert_eq!(s.flows, s.flows_completed);
        assert!(s.hit_rate > 0.0);
    }

    #[test]
    fn sweep_is_rectangular_and_reuses_baselines() {
        let base = tiny_spec(StrategyKind::NoCache, 0);
        let fracs = [0.1, 0.5];
        let table = sweep(
            &base,
            &[
                StrategyKind::NoCache,
                StrategyKind::SwitchV2P,
                StrategyKind::Direct,
            ],
            &fracs,
            256,
        );
        assert_eq!(table.rows().len(), 3 * fracs.len());
        // NoCache rows are the same run duplicated across fractions.
        let nc: Vec<&Row> = table
            .rows()
            .iter()
            .filter(|r| r.strategy.name == "NoCache")
            .collect();
        assert_eq!(nc.len(), 2);
        assert_eq!(nc[0].summary.avg_fct_us, nc[1].summary.avg_fct_us);
        // SwitchV2P rows differ by cache size.
        let sv: Vec<&Row> = table
            .rows()
            .iter()
            .filter(|r| r.strategy.name == "SwitchV2P")
            .collect();
        assert_eq!(sv.len(), 2);
        // The join index agrees with the rows.
        let id = StrategyKind::SwitchV2P.id();
        for &f in &fracs {
            assert!(table.cell(&id, f).is_some());
        }
    }

    #[test]
    fn sweep_keeps_switchv2p_variants_distinct() {
        // The regression this table exists for: a default SwitchV2P and a
        // configured variant share the display name, so a name-keyed join
        // collapsed them onto one row.
        let base = tiny_spec(StrategyKind::NoCache, 0);
        let variant = StrategyKind::SwitchV2PWith(SwitchV2PConfig::without_spillover());
        let fracs = [0.25];
        let table = sweep(&base, &[StrategyKind::SwitchV2P, variant], &fracs, 256);
        assert_eq!(table.rows().len(), 2);
        let ids = table.strategies();
        assert_eq!(ids.len(), 2, "variants must not alias: {ids:?}");
        assert_eq!(ids[0].to_string(), "SwitchV2P");
        assert_eq!(ids[1].to_string(), "SwitchV2P[no-spillover]");
        let a = table
            .cell(&StrategyKind::SwitchV2P.id(), 0.25)
            .expect("default cell");
        let b = table.cell(&variant.id(), 0.25).expect("variant cell");
        assert_eq!(a.strategy.variant, "");
        assert_eq!(b.strategy.variant, "no-spillover");
    }

    #[test]
    fn strategy_ids_describe_ablations() {
        assert_eq!(StrategyKind::NoCache.id().to_string(), "NoCache");
        assert_eq!(
            StrategyKind::SwitchV2PWith(SwitchV2PConfig::default()).id(),
            StrategyKind::SwitchV2P.id(),
            "a default config is the same identity as the plain scheme"
        );
        assert_eq!(
            StrategyKind::SwitchV2PWith(SwitchV2PConfig::without_invalidations())
                .id()
                .to_string(),
            "SwitchV2P[no-invalidations]"
        );
        assert_eq!(
            StrategyKind::SwitchV2PWith(SwitchV2PConfig::tor_heavy())
                .id()
                .to_string(),
            "SwitchV2P[weights=4-1-1]"
        );
    }

    #[test]
    fn to_flow_specs_wraps_and_drops_self_flows() {
        let flows = vec![
            TraceFlow {
                src_vm: 300,
                dst_vm: 5,
                start_ns: 10,
                profile: FlowProfile::Tcp { bytes: 100 },
            },
            TraceFlow {
                src_vm: 7,
                dst_vm: 263, // 263 % 256 == 7 → self flow, dropped
                start_ns: 20,
                profile: FlowProfile::Tcp { bytes: 100 },
            },
        ];
        let specs = to_flow_specs(&flows, 256);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].src_vm, 44);
        assert_eq!(specs[0].dst_vm, 5);
    }
}
