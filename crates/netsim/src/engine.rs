//! The engine: one shared world, one copy of the control state, a `Vec`
//! of shard-owned state and the driver's master.
//!
//! `shards` is the only selector. Every pending event of the run sits on
//! the master's one calendar, under the same `(time, seq)` key at every
//! shard count, every in-flight packet in its one arena, and every effect
//! applies on the spot; the partition decides only which shard's state an
//! event's handler runs on, always on the caller's thread. One shard runs
//! every event through `Shard::drain`; several interleave event by event
//! (see `sharded`). Both produce byte-identical results
//! (`tests/sharded_equiv.rs`): more than one shard is an equivalence
//! oracle that costs wall-clock, built only by [`Engine::sharded`], which
//! nothing but that suite and `benchmark/`'s two-shard cell calls.
//!
//! Global events — migrations, faults, churn marks, telemetry samples —
//! write control state, so at every shard count the driver executes them
//! itself, with every shard in reach: `exec_global`.
//!
//! Results are read through [`Engine::counters`]: the master's one ledger,
//! plus what the still-running TCP machines have counted, read anew on
//! every call, so every read is a `&self` function of the state as it
//! stands.

use std::sync::Arc;
use std::time::Instant;

use sv2p_metrics::{Counters, Metrics, RecoveryReport, RunSummary, WINDOW_NS};
use sv2p_packet::{Pip, SwitchTag, Vip};
use sv2p_simcore::{EventQueue, FxHashMap, SimDuration, SimTime};
use sv2p_telemetry::profile::Profiler;
use sv2p_telemetry::{EventKind, Sample, TraceEvent, Tracer, SAMPLE_EVERY_NS};
use sv2p_topology::{
    FatTreeConfig, Layer, LinkId, NodeId, NodeKind, PodPartition, RoleMap, Routing, SwitchRole,
    Topology,
};
use sv2p_vnet::{CacheOp, GatewayDirectory, Migration, Placement, Strategy, SwitchAgent};

use crate::arena::PacketArena;
use crate::churn::{ChurnMark, ChurnPlan};
use crate::config::SimConfig;
use crate::effects::{Event, Master, NoProbe, PhaseProbe, Probe};
use crate::faults::{FaultEvent, FaultPlan};
use crate::flows::{FlowSpec, FlowXport};
use crate::link::SerTable;
use crate::sharded::{move_vm, run_interleaved, Turns};
use crate::sim::{cache_op_event, wire_layer, Shard, Snapshot};
use crate::world::{Control, World};

/// A complete, runnable experiment instance.
pub struct Engine {
    world: Arc<World>,
    ctl: Control,
    shards: Vec<Shard>,
    master: Master,
    turns: Turns,
    /// Engine self-profiling (wall-clock side channel; never feeds back
    /// into simulation state).
    profiler: Profiler,
}

impl Engine {
    /// Builds an experiment: topology, placement, an agent at every switch
    /// whose role weighs above 0 with the aggregate `total_cache_entries`
    /// split among them by weight, and a host agent per shard.
    pub fn new(
        cfg: SimConfig,
        ft: &FatTreeConfig,
        strategy: &dyn Strategy,
        total_cache_entries: usize,
        vms_per_server: u32,
    ) -> Self {
        Self::sharded(cfg, ft, strategy, total_cache_entries, vms_per_server, 1)
    }

    /// [`Self::new`] cut into at most `shards` pod shards (clamped by the
    /// partitioner to what the topology supports): the equivalence oracle,
    /// with byte-identical results at a wall-clock cost. Topology and
    /// placement are built once whatever the count. Nothing but its own
    /// suite and `benchmark/`'s two-shard cell (through
    /// `ExperimentSpec::shards`) asks for more than one (ROADMAP N1).
    pub fn sharded(
        cfg: SimConfig,
        ft: &FatTreeConfig,
        strategy: &dyn Strategy,
        total_cache_entries: usize,
        vms_per_server: u32,
        shards: u16,
    ) -> Self {
        let topo = ft.build();
        let routing = Routing::new(ft, &topo);
        let roles = RoleMap::classify(&topo);
        let placement = Placement::uniform(&topo, vms_per_server);
        let dir = GatewayDirectory::from_topology(&topo);
        let partition = PodPartition::new(&topo, shards);

        let total_weight: f64 = topo
            .switches()
            .map(|sw| strategy.cache_weight(roles.role(sw.id).expect("switch role")))
            .sum();
        // Budget split: switch i gets total * w_i / sum(w) lines (the
        // homogeneous default reduces to total / #switches, §5); a weight
        // of 0 gets none.
        let lines_for = |role: SwitchRole| -> usize {
            let w = strategy.cache_weight(role);
            if total_cache_entries == 0 || total_weight <= 0.0 || w <= 0.0 {
                return 0;
            }
            ((total_cache_entries as f64 * w / total_weight) as usize).max(1)
        };
        let caching = topo
            .switches()
            .map(|sw| roles.role(sw.id).is_some_and(|role| lines_for(role) > 0))
            .collect();

        let world = Arc::new(World {
            cfg,
            ser: topo
                .classes()
                .iter()
                .map(|c| SerTable::new(c.bandwidth_bps))
                .collect(),
            topo,
            routing,
            dir,
            caching,
            misdelivery_policy: strategy.misdelivery_policy(),
            strategy_name: strategy.name().to_string(),
            partition,
        });
        let n_shards = world.partition.shards() as usize;
        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|s| Shard::new(s, world.clone(), strategy.make_host_agent()))
            .collect();
        for sw in world.topo.switches() {
            // A scheme is asked for an agent only where it caches; every
            // other switch holds none and just forwards. The choice is made
            // here, once: a later role change keeps the agent, or the lack
            // of one.
            let role = roles.role(sw.id).expect("switch role");
            if strategy.cache_weight(role) > 0.0 {
                let agent = strategy.make_switch_agent(role, lines_for(role));
                let owner = &mut shards[world.shard_of(sw.id)];
                owner.agents[world.tag(sw.id).0 as usize] = Some(agent);
            }
        }
        let mut master = Master {
            events: EventQueue::new(),
            arena: PacketArena::new(),
            counters: Counters::new(world.topo.switch_count()),
            traffic_matrix: FxHashMap::default(),
            metrics: Metrics::new(),
            tracer: Tracer::new(cfg.telemetry),
            next_pkt_id: 0,
            sampler_idle: false,
        };
        if master.tracer.enabled() {
            // First snapshot at t = 0; workload events scheduled later at the
            // same instant run after it (the calendar is FIFO at equal times).
            master
                .events
                .schedule_at(SimTime::ZERO, Event::TelemetrySample);
        }
        let ctl = Control {
            placement,
            follow_me: FxHashMap::default(),
            last_migration: FxHashMap::default(),
            roles,
            blackout: vec![0; world.topo.node_count()],
            link_down: vec![0; world.topo.link_count()],
            links_down: 0,
            loss: FxHashMap::default(),
            flows: Vec::new(),
            migrations: Vec::new(),
            fault_plan: Vec::new(),
            churn_marks: Vec::new(),
        };
        Engine {
            world,
            ctl,
            shards,
            master,
            turns: Turns::default(),
            profiler: Profiler::new(cfg.profile),
        }
    }

    /// The number of shards the fabric is partitioned into (every count
    /// runs on the caller's thread).
    pub fn shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// Turns so far: maximal runs of consecutive events on one shard (0
    /// with one shard).
    pub fn window_count(&self) -> u64 {
        self.turns.turns
    }

    /// Packets that crossed between shards so far (0 with one shard).
    pub fn cut_events(&self) -> u64 {
        self.turns.cut_events
    }

    /// Current virtual time: the instant of the last executed event.
    pub fn now(&self) -> SimTime {
        self.master.events.now()
    }

    /// Events executed so far (identical at every shard count).
    pub fn events_executed(&self) -> u64 {
        self.master.events.events_executed()
    }

    /// Pending-event high-water mark (identical at every shard count).
    pub fn peak_queue(&self) -> usize {
        self.master.events.peak_len()
    }

    /// In-flight packet high-water mark (identical at every shard count) —
    /// a proxy for what the run would have allocated per-packet without
    /// the arena (run manifests).
    pub fn peak_arena(&self) -> usize {
        self.master.arena.peak()
    }

    /// The telemetry tracer (read events/samples after a run).
    pub fn tracer(&self) -> &Tracer {
        &self.master.tracer
    }

    /// The engine self-profiler (disabled unless `SimConfig::profile`).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    /// Read-only routing access.
    pub fn routing(&self) -> &Routing {
        &self.world.routing
    }

    /// Read-only role access.
    pub fn roles(&self) -> &RoleMap {
        &self.ctl.roles
    }

    /// The gateway directory in use.
    pub fn gateway_directory(&self) -> &GatewayDirectory {
        &self.world.dir
    }

    /// The VM placement: the ground-truth V2P mapping
    /// ([`Placement::lookup`]), moved only by migrations.
    pub fn placement(&self) -> &Placement {
        &self.ctl.placement
    }

    /// Where the engine's bytes live, by part: each part's own
    /// `resident_bytes()`, or the length of its tables. Inline sizes, plus
    /// the running flows' TCP machines, the per-flow records of the metrics
    /// and what switch agents hold behind their pointers
    /// ([`SwitchAgent::resident_bytes`]); `links` counts the shards' queue
    /// slabs and `nodes` each shard's one host agent. What a packet or a
    /// host agent holds behind a pointer of its own is not counted, so a
    /// process's RSS growth exceeds the sum by that and by the allocator's
    /// overhead. The
    /// `records` part is what the run writes down as it goes: the metrics'
    /// exact-percentile samples, the ledger's stale-hit ages, recovery
    /// times and windowed series, and the tracer's ring and samples.
    pub fn resident_bytes(&self) -> [(&'static str, usize); 8] {
        use std::mem::{size_of, size_of_val as bytes};
        let (ctl, w, m) = (&self.ctl, &self.world, &self.master);
        let sum = |f: &dyn Fn(&Shard) -> usize| self.shards.iter().map(f).sum::<usize>();
        let loss = ctl.loss.capacity() * (size_of::<(LinkId, (f64, u32))>() + 1);
        let per_link = bytes(&*ctl.link_down) + loss;
        let per_node = bytes(&*ctl.blackout) + bytes(&*w.caching);
        let classes = w.ser.iter().map(SerTable::resident_bytes).sum::<usize>();
        let flows = bytes(&*ctl.flows) + m.metrics.flow_table_bytes();
        let records =
            m.metrics.sample_bytes() + m.counters.record_bytes() + m.tracer.resident_bytes();
        [
            ("placement", ctl.placement.resident_bytes()),
            ("topology", w.topo.resident_bytes() + classes),
            ("links", per_link + sum(&|s| s.resident_bytes().0)),
            ("nodes", per_node + sum(&|s| s.resident_bytes().1)),
            ("calendar", m.events.resident_bytes()),
            ("arena", m.arena.resident_bytes()),
            ("flows", flows + sum(&|s| s.resident_bytes().2)),
            ("records", records),
        ]
    }

    /// Retired, 0 bytes: an always-empty table, kept only because the
    /// benchmark harness still adds its `resident_bytes()` to the
    /// placement's. The engine keeps no `MappingDb`; its V2P truth is
    /// [`Self::placement`].
    pub fn db(&self) -> &sv2p_vnet::MappingDb {
        static RETIRED: std::sync::LazyLock<sv2p_vnet::MappingDb> =
            std::sync::LazyLock::new(Default::default);
        &RETIRED
    }

    /// Registers the workload. Flow ids are assigned densely in call
    /// order. May be called mid-run; instants already in the past take
    /// effect immediately.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        let start = |f: &FlowSpec, i| [(f.start, Event::FlowStart(i))];
        self.register(|c| &mut c.flows, specs, start);
        let n = self.ctl.flows.len();
        for shard in &mut self.shards {
            shard.flows.resize_with(n, FlowXport::default);
        }
        self.master.metrics.reserve_flows(n);
    }

    /// Registers a VM migration. May be called mid-run; an instant already
    /// in the past takes effect immediately (and is recorded as the instant
    /// the VM moved: stale hits age from it).
    pub fn add_migration(&mut self, m: Migration) {
        let at = m.at.max(self.now());
        let moves = |m: &Migration, i| [(m.at, Event::Migrate(i))];
        self.register(|c| &mut c.migrations, [Migration { at, ..m }], moves);
    }

    /// Registers a generated churn plan: its tenant flows, its migration
    /// schedule, and the timeline marks that feed telemetry and the churn
    /// counters. May be called mid-run; instants already in the past take
    /// effect immediately.
    pub fn apply_churn_plan(&mut self, plan: &ChurnPlan) {
        self.add_flows(plan.flows.iter().cloned());
        for &m in &plan.migrations {
            self.add_migration(m);
        }
        let marks = plan.marks.iter().copied();
        let mark = |m: &ChurnMark, i| [(m.at(), Event::ChurnMark(i))];
        self.register(|c| &mut c.churn_marks, marks, mark);
    }

    /// Registers a fault plan: every event's start and end are pushed onto
    /// the queue up front, in plan order, so same-instant faults and packet
    /// events tie-break deterministically (the queue is FIFO at equal
    /// times). May be called mid-run; instants already in the past take
    /// effect immediately.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        let faults = plan.events().iter().cloned();
        let window = |f: &FaultEvent, i| {
            [
                (f.at(), Event::FaultStart(i)),
                (f.end(), Event::FaultEnd(i)),
            ]
        };
        self.register(|c| &mut c.fault_plan, faults, window);
    }

    /// The one registration path. Each entry is filed under the next index
    /// of the control-state table `table` picks, and the global events
    /// `events` names for it are scheduled — an instant already past takes
    /// effect now. Then a sampler that stopped on a drained calendar wakes.
    fn register<T, const N: usize>(
        &mut self,
        table: fn(&mut Control) -> &mut Vec<T>,
        entries: impl IntoIterator<Item = T>,
        events: impl Fn(&T, u32) -> [(SimTime, Event); N],
    ) {
        let now = self.now();
        for entry in entries {
            let idx = Event::index(table(&mut self.ctl).len());
            for (at, ev) in events(&entry, idx) {
                self.master.events.schedule_at(at.max(now), ev);
            }
            table(&mut self.ctl).push(entry);
        }
        self.master.wake_sampler();
    }

    /// Runs until the calendar drains (or `end_of_time`).
    pub fn run(&mut self) {
        let horizon = self.world.cfg.end_of_time.unwrap_or(SimTime::MAX);
        self.run_until(horizon);
    }

    /// Runs all events up to and including instant `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let horizon = match self.world.cfg.end_of_time {
            Some(h) => h.min(t),
            None => t,
        };
        let Engine {
            world,
            ctl,
            shards,
            master,
            turns,
            profiler,
        } = self;
        let run_t0 = profiler.enabled().then(Instant::now);
        match &mut shards[..] {
            [shard] if run_t0.is_some() => {
                run_direct(ctl, shard, master, &mut PhaseProbe::new(profiler), horizon)
            }
            [shard] => run_direct(ctl, shard, master, &mut NoProbe, horizon),
            shards if run_t0.is_some() => {
                let probe = &mut PhaseProbe::new(profiler);
                run_interleaved(world, ctl, shards, master, turns, probe, horizon)
            }
            shards => run_interleaved(world, ctl, shards, master, turns, &mut NoProbe, horizon),
        }
        if let Some(t0) = run_t0 {
            profiler.add_run_ns(t0.elapsed().as_nanos() as u64);
        }
        #[cfg(debug_assertions)]
        if master.events.is_empty() {
            assert_drained(ctl, master, shards);
        }
    }

    /// The ledger as of now: the master's order-free counters (a finished
    /// TCP machine's statistics among them), plus the receiver / sender
    /// statistics read off the running ones on every shard. Built afresh
    /// on each call, so it and the reads below are right at any pause of
    /// the run and change nothing.
    pub fn counters(&self) -> Counters {
        let mut all = self.master.counters.clone();
        for f in self.shards.iter().flat_map(|s| &s.flows) {
            if let Some(rx) = &f.tcp_rx {
                all.reordered_segments += rx.reordered_segments;
            }
            if let Some(tx) = &f.tcp_tx {
                all.retransmissions += tx.tcp.retransmits;
            }
        }
        all
    }

    /// The run's summary as of now.
    pub fn summary(&self) -> RunSummary {
        self.master
            .metrics
            .summary(&self.counters(), &self.world.strategy_name)
    }

    /// Total bytes processed by all switches in `pod` (Figure 7).
    pub fn pod_bytes(&self, pod: u16) -> u64 {
        let bytes = &self.master.counters.bytes_by_switch;
        self.world
            .topo
            .switches()
            .filter(|sw| sw.kind.pod() == Some(pod))
            .map(|sw| bytes[self.world.tag(sw.id).0 as usize])
            .sum()
    }

    /// Recovery analysis of the windowed series around the fault window
    /// `[fault_at, fault_end)`.
    pub fn recovery_report(&self, fault_at: SimTime, fault_end: SimTime) -> RecoveryReport {
        self.master
            .metrics
            .recovery_report(&self.counters(), fault_at, fault_end)
    }

    /// Registered flows that have not completed yet.
    pub fn flows_outstanding(&self) -> u64 {
        self.ctl.flows.len() as u64 - self.master.metrics.flows_completed
    }

    /// The switch agent at `node`, on the shard that owns it; `None` for a
    /// host or for a switch whose role weighs 0.
    fn agent(&self, node: NodeId) -> Option<&dyn SwitchAgent> {
        let tag = self.world.tag_of(self.world.topo.kind(node))?;
        self.shards[self.world.shard_of(node)].agents[tag.0 as usize].as_deref()
    }

    /// The switch agent at `node`, mutably; `None` for a host or for a
    /// switch whose role weighs 0.
    fn agent_mut(&mut self, node: NodeId) -> Option<&mut Box<dyn SwitchAgent>> {
        let tag = self.world.tag_of(self.world.topo.kind(node))?;
        self.shards[self.world.shard_of(node)].agents[tag.0 as usize].as_mut()
    }

    /// Bytes processed by each switch, with its identity (Figures 7-8).
    /// Rows follow `topology().switches()` enumeration order — ascending
    /// `NodeId` — at every shard count.
    pub fn per_switch_bytes(&self) -> Vec<(NodeId, NodeKind, u64)> {
        let bytes = &self.master.counters.bytes_by_switch;
        self.world
            .topo
            .switches()
            .map(|sw| (sw.id, sw.kind, bytes[self.world.tag(sw.id).0 as usize]))
            .collect()
    }

    /// Per-switch cache occupancy keyed by tag (capacity audits), in
    /// `topology().switches()` order like [`Self::per_switch_bytes`].
    pub fn cache_occupancy(&self) -> Vec<(SwitchTag, usize)> {
        self.world
            .topo
            .switches()
            .map(|sw| {
                let occ = self.agent(sw.id).map_or(0, |a| a.occupancy());
                (self.world.tag(sw.id), occ)
            })
            .collect()
    }

    /// Every cached `(switch, vip, pip)` line that disagrees with the
    /// ground truth ([`Placement::lookup`]) — the stale entries a migration
    /// left behind that no strategy machinery has corrected yet. Rows follow
    /// `topology().switches()` order.
    pub fn stale_cache_entries(&self) -> Vec<(NodeId, Vip, Pip)> {
        let mut out = Vec::new();
        for sw in self.world.topo.switches() {
            if let Some(agent) = self.agent(sw.id) {
                for (vip, pip) in agent.entries() {
                    if self.ctl.placement.lookup(vip) != Some(pip) {
                        out.push((sw.id, vip, pip));
                    }
                }
            }
        }
        out
    }

    /// Installs `entries` into the switch agent at `node` (Controller
    /// baseline; clears previously installed state first when `clear`).
    /// A node with no agent — a host, or a switch whose role weighs 0 —
    /// takes nothing, and nothing is traced.
    pub fn install_cache_entries(&mut self, node: NodeId, clear: bool, entries: &[(Vip, Pip)]) {
        let Some(agent) = self.agent_mut(node) else {
            return;
        };
        if clear {
            agent.clear_installed();
        }
        for &(vip, pip) in entries {
            agent.install(vip, pip);
        }
        if self.master.tracer.enabled() {
            let t = self.now().as_nanos();
            let layer = wire_layer(&self.ctl.roles, node);
            for &(vip, pip) in entries {
                let ev = cache_op_event(t, node, layer, CacheOp::Install { vip, pip });
                self.master.tracer.record(ev);
            }
        }
    }

    /// Control-plane role reassignment (§4 "Gateway migration"): the switch
    /// keeps its cache ("the cache state does not require migration") but
    /// from now on behaves per the new role's Table-1 policies.
    pub fn reassign_switch_role(&mut self, node: NodeId, role: SwitchRole) {
        self.ctl.roles.set_role(node, role);
    }

    /// Installs `agent` at the switch `node` in place of the one it holds,
    /// if any (role migration where the operator prefers a cold cache
    /// "rebuilt at the destination", or a switch built without an agent
    /// taking one up). Panics for a host.
    pub fn replace_switch_agent(&mut self, node: NodeId, agent: Box<dyn SwitchAgent>) {
        let tag = self
            .world
            .tag_of(self.world.topo.kind(node))
            .unwrap_or_else(|| panic!("node {node:?} is not a switch"));
        self.shards[self.world.shard_of(node)].agents[tag.0 as usize] = Some(agent);
    }

    /// Injects a switch failure: the switch's volatile state (its cache) is
    /// lost, as after a reboot. Forwarding continues — SwitchV2P's caches
    /// are opportunistic, so correctness must not depend on them (§2.1).
    pub fn fail_switch(&mut self, node: NodeId) {
        let now = self.now();
        self.master
            .metrics
            .record_fault(now, format!("reboot sw{}", node.0));
        self.shards[self.world.shard_of(node)].cold_reset_switch(&self.ctl, node);
    }

    /// Fails every switch at once (the harshest reboot storm).
    pub fn fail_all_switches(&mut self) {
        let now = self.now();
        self.master
            .metrics
            .record_fault(now, "reboot storm: all switches");
        for sw in self.world.topo.switches() {
            self.shards[self.world.shard_of(sw.id)].cold_reset_switch(&self.ctl, sw.id);
        }
    }

    /// Per-(src_vm, dst_vm) data-packet counts since the last
    /// [`Self::clear_traffic_matrix`] (requires
    /// `SimConfig::record_traffic_matrix`).
    pub fn traffic_matrix(&self) -> &FxHashMap<(u32, u32), u64> {
        &self.master.traffic_matrix
    }

    /// Resets traffic-matrix counters (Controller epochs).
    pub fn clear_traffic_matrix(&mut self) {
        self.master.traffic_matrix.clear();
    }
}

/// One shard: it drains the calendar, and the loop hands each global event
/// it pops to [`exec_global`].
fn run_direct<P: Probe>(
    ctl: &mut Control,
    shard: &mut Shard,
    master: &mut Master,
    probe: &mut P,
    horizon: SimTime,
) {
    let bt = SimTime::from_nanos(horizon.as_nanos().saturating_add(1));
    while let Some(global) = shard.drain(ctl, master, probe, bt) {
        let phase = global.phase();
        let shards = std::slice::from_mut(&mut *shard);
        exec_global(ctl, master, shards, global);
        probe.dispatched(phase, master);
    }
}

/// Packet and flow-state conservation on a drained calendar (debug
/// builds): with no event pending, no packet is in flight and none waits at
/// a gateway, no gateway is busy, every TCP flow has completed — a started
/// flow that had not would still have its timer pending — and none still
/// holds a sender or a receiver, so each was freed at its flow's end.
#[cfg(debug_assertions)]
fn assert_drained(ctl: &Control, master: &Master, shards: &[Shard]) {
    assert_eq!(
        master.arena.live(),
        0,
        "packets alive on a drained calendar"
    );
    for s in shards {
        assert!(
            s.gw_busy.is_empty(),
            "a gateway is busy on a drained calendar"
        );
        let running = |f: &FlowXport| f.tcp_tx.is_some() || f.tcp_rx.is_some();
        assert!(
            !s.flows.iter().any(running),
            "a TCP flow holds a sender or a receiver on a drained calendar"
        );
    }
    for (i, f) in ctl.flows.iter().enumerate() {
        let done = shards.iter().any(|s| s.flows[i].completed);
        assert!(
            !f.is_tcp() || done,
            "TCP flow {i} unfinished on a drained calendar"
        );
    }
}

/// The links a `LossRate` fault covers: the one it names, or all `n`.
fn covered_links(link: Option<LinkId>, n: usize) -> impl Iterator<Item = LinkId> {
    let ids = match link {
        Some(l) => l.0..l.0 + 1,
        None => 0..n as u32,
    };
    ids.map(LinkId)
}

/// Opens one more fault window on a link or node whose open windows
/// `count` holds; true if it was the first.
fn open_window(count: &mut u8) -> bool {
    *count = count
        .checked_add(1)
        .expect("at most 255 fault windows open on one link or node");
    *count == 1
}

/// Closes one of the fault windows `count` holds open; true if it was the
/// last.
fn close_window(count: &mut u8) -> bool {
    *count = count.checked_sub(1).expect("an open fault window");
    *count == 0
}

/// Executes the global event the driver just popped from its calendar:
/// writes the control state once, then lets every shard apply the part
/// that concerns state it owns.
pub(crate) fn exec_global(ctl: &mut Control, master: &mut Master, shards: &mut [Shard], ev: Event) {
    let now = master.events.now();
    match ev {
        Event::TelemetrySample => {
            let mut s = Snapshot::default();
            for shard in shards.iter() {
                shard.snapshot_into(ctl, now, &mut s);
            }
            let pending_events = master.events.len() as u64;
            let c = &master.counters;
            let window = c.windows.get((now.as_nanos() / WINDOW_NS) as usize);
            master.tracer.samples.push(Sample {
                t_ns: now.as_nanos(),
                events_executed: master.events.events_executed(),
                pending_events,
                queue_pkts_total: s.q_total,
                queue_pkts_max: s.q_max,
                occ_tor: s.occ[Layer::Tor as usize],
                occ_spine: s.occ[Layer::Spine as usize],
                occ_core: s.occ[Layer::Core as usize],
                hit_rate_window: window.and_then(|w| w.hit_rate()),
                hit_rate_cum: c.total.hit_rate().unwrap_or(0.0),
                gateway_pkts_cum: c.total.gateway,
            });
            // Re-arm while anything else is pending, so the sampler never
            // keeps an otherwise-finished run alive; a registration wakes
            // it (`Master::wake_sampler`).
            if pending_events > 0 {
                let period = SimDuration::from_nanos(SAMPLE_EVERY_NS);
                master.events.schedule_in(period, Event::TelemetrySample);
            } else {
                master.sampler_idle = true;
            }
            return;
        }
        Event::FaultStart(i) => {
            let fault = &ctl.fault_plan[i as usize];
            master.metrics.record_fault(now, fault.label());
            match *fault {
                FaultEvent::SwitchReboot { node, .. } | FaultEvent::GatewayOutage { node, .. } => {
                    open_window(&mut ctl.blackout[node.0 as usize]);
                }
                FaultEvent::LinkDown { link, .. } => {
                    if open_window(&mut ctl.link_down[link.0 as usize]) {
                        ctl.links_down += 1;
                    }
                }
                FaultEvent::LossRate { link, rate, .. } => {
                    for l in covered_links(link, ctl.link_down.len()) {
                        let open = ctl.loss.entry(l).or_default();
                        *open = (open.0 + rate, open.1 + 1);
                    }
                }
            }
        }
        Event::FaultEnd(i) => {
            let fault = &ctl.fault_plan[i as usize];
            master
                .metrics
                .record_fault(now, format!("{} cleared", fault.label()));
            match *fault {
                // A rebooted switch is back up when its last window closes,
                // but cold at each: the owning shard drops its volatile
                // state below.
                FaultEvent::SwitchReboot { node, .. } | FaultEvent::GatewayOutage { node, .. } => {
                    close_window(&mut ctl.blackout[node.0 as usize]);
                }
                FaultEvent::LinkDown { link, .. } => {
                    if close_window(&mut ctl.link_down[link.0 as usize]) {
                        ctl.links_down -= 1;
                    }
                }
                // Subtract rather than zero so overlapping windows compose,
                // but clear exactly when the last one closes: in f64
                // 0.1 + 0.2 - 0.1 - 0.2 is 2.8e-17, and any rate above zero
                // makes every enqueue on the link draw from the fault stream.
                FaultEvent::LossRate { link, rate, .. } => {
                    for l in covered_links(link, ctl.link_down.len()) {
                        let open = ctl.loss.get_mut(&l).expect("an open loss window");
                        if open.1 == 1 {
                            ctl.loss.remove(&l);
                        } else {
                            *open = ((open.0 - rate).max(0.0), open.1 - 1);
                        }
                    }
                }
            }
        }
        Event::Migrate(i) => {
            let m = ctl.migrations[i as usize];
            let vm = ctl
                .placement
                .index_of(m.vip)
                .expect("migrating unknown VIP");
            let old_node = ctl.placement.node_of(vm);
            ctl.placement.relocate(vm, m.to_node, m.to_pip);
            // Andromeda-style follow-me rule at the old host.
            ctl.follow_me.insert((old_node, m.vip), m.to_pip);
            // The timestamp is the scheduled instant; stale hits on the VIP
            // attribute to this migration from now on.
            ctl.last_migration
                .insert(m.vip, master.metrics.record_migration(m.at));
            // The VM's flows' events now run on the shard owning its new
            // host; their transport state follows.
            let world = &shards[0].world;
            let (from, to) = (world.shard_of(old_node), world.shard_of(m.to_node));
            if from != to {
                move_vm(ctl, vm, shards, from, to);
            }
        }
        Event::ChurnMark(i) => {
            let (kind, tenant, n) = match ctl.churn_marks[i as usize] {
                ChurnMark::Arrival { tenant, vms, .. } => {
                    master.metrics.churn_arrivals += 1;
                    (EventKind::ChurnArrival, tenant, vms)
                }
                ChurnMark::Departure { tenant, vms, .. } => {
                    master.metrics.churn_departures += 1;
                    (EventKind::ChurnDeparture, tenant, vms)
                }
                ChurnMark::Wave { migrations, .. } => {
                    master.metrics.migration_waves += 1;
                    (EventKind::MigrationWave, 0, migrations)
                }
            };
            if master.tracer.enabled() {
                // Field reuse on the fixed-layout trace record: `vip` carries
                // the tenant id, `hops` the VM (or migration) count.
                let mut ev = TraceEvent::new(now.as_nanos(), kind);
                ev.vip = Some(tenant);
                ev.hops = Some(n.min(u16::MAX as u32) as u16);
                master.tracer.record(ev);
            }
        }
        _ => unreachable!("not a global event"),
    }
    for shard in shards.iter_mut() {
        shard.on_global(ctl, &ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowKind;
    use sv2p_packet::Packet;
    use sv2p_transport::UdpSchedule;
    use sv2p_vnet::{AgentOutput, SwitchCtx};

    /// The plain gateway design, which is `Strategy`'s defaults (the
    /// NoCache baseline lives in `sv2p-baselines`; this local twin keeps
    /// netsim's tests self-contained).
    struct TestNoCache;

    impl Strategy for TestNoCache {
        fn name(&self) -> &'static str {
            "TestNoCache"
        }
    }

    fn sim_with(cfg: SimConfig) -> Engine {
        Engine::new(cfg, &FatTreeConfig::scaled_ft8(2), &TestNoCache, 0, 4)
    }

    fn small_sim() -> Engine {
        sim_with(SimConfig::default())
    }

    #[test]
    fn single_tcp_flow_completes_via_gateway() {
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: sim.placement().len() - 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 50_000 },
        }]);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, 1, "{s:?}");
        assert_eq!(s.hit_rate, 0.0, "NoCache must have zero hit rate");
        assert!(s.gateway_packets > 0);
        // Every data packet goes through a gateway: first packet latency must
        // include the 40us processing.
        assert!(
            s.avg_first_packet_latency_us > 40.0,
            "first packet latency {} lacks the gateway detour",
            s.avg_first_packet_latency_us
        );
        assert_eq!(s.packets_dropped, 0);
    }

    #[test]
    fn first_packet_latency_matches_hand_computation() {
        // Same rack sender/receiver: path via gateway =
        // host->ToR->spine->core->spine->gwToR->GW (6 links in FT8-scaled(2))
        // ... depends on pod of gateway; just bound it: must be at least
        // 40us (gateway) + 2 * a few links, and below 100us in an idle net.
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 1000 },
        }]);
        sim.run();
        let s = sim.summary();
        assert!(s.avg_first_packet_latency_us > 44.0);
        assert!(
            s.avg_first_packet_latency_us < 100.0,
            "{}",
            s.avg_first_packet_latency_us
        );
    }

    #[test]
    fn udp_flow_delivers_all_datagrams() {
        let mut sim = small_sim();
        let sched = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            48_000_000,
            1000,
        );
        let n = sched.len() as u64;
        sim.add_flows([FlowSpec {
            src_vm: 3,
            dst_vm: 200,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule: sched },
        }]);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, 1);
        assert_eq!(s.data_packets_delivered, n);
        assert_eq!(s.packets_dropped, 0);
    }

    #[test]
    fn many_flows_all_complete() {
        let mut sim = small_sim();
        let vms = sim.placement().len();
        let flows: Vec<FlowSpec> = (0..50)
            .map(|i| FlowSpec {
                src_vm: (i * 7) % vms,
                dst_vm: (i * 13 + 5) % vms,
                start: SimTime::from_micros(i as u64),
                kind: FlowKind::Tcp {
                    bytes: 2_000 + 997 * i as u64,
                },
            })
            .filter(|f| f.src_vm != f.dst_vm)
            .collect();
        let n = flows.len() as u64;
        sim.add_flows(flows);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, n, "{s:?}");
        assert_eq!(s.hit_rate, 0.0);
        assert!(s.avg_stretch > 1.0);
        // The pods' bytes and the cores' (in no pod) make up the total.
        let pods = sim
            .topology()
            .switches()
            .filter_map(|sw| sw.kind.pod())
            .max()
            .unwrap()
            + 1;
        let in_pods: u64 = (0..pods).map(|p| sim.pod_bytes(p)).sum();
        let per_switch = sim.per_switch_bytes();
        let cores: u64 = per_switch
            .iter()
            .filter(|r| r.1.pod().is_none())
            .map(|r| r.2)
            .sum();
        assert!(in_pods > 0 && cores > 0, "{in_pods} {cores}");
        assert_eq!(in_pods + cores, s.total_switch_bytes);
    }

    #[test]
    fn migration_with_follow_me_redelivers() {
        let mut sim = small_sim();
        let dst_vm = 0usize;
        let vip = sim.placement().vip_of(dst_vm);
        // Pick a target server in the other pod.
        let target = sim
            .topology()
            .servers()
            .map(|n| (n.id, n.pip))
            .last()
            .unwrap();
        // A fast CBR flow (packet every ~1.6 us) so several packets are in
        // flight across the ~50 us gateway path when the migration fires.
        let sched = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            5_000_000_000,
            1000,
        );
        let n = sched.len() as u64;
        sim.add_flows([FlowSpec {
            src_vm: sim.placement().len() - 1,
            dst_vm,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule: sched },
        }]);
        sim.add_migration(Migration::new(
            SimTime::from_micros(500),
            vip,
            target.0,
            target.1,
        ));
        sim.run();
        let s = sim.summary();
        assert!(
            s.misdelivered_packets > 0,
            "packets in flight at migration must misdeliver"
        );
        assert_eq!(
            s.data_packets_delivered, n,
            "follow-me must redeliver everything"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = small_sim();
            let vms = sim.placement().len();
            sim.add_flows((0..20).map(|i| FlowSpec {
                src_vm: i % vms,
                dst_vm: (i + 37) % vms,
                start: SimTime::from_micros(i as u64 / 3),
                kind: FlowKind::Tcp {
                    bytes: 5_000 + i as u64,
                },
            }));
            sim.run();
            let s = sim.summary();
            (
                s.avg_fct_us,
                s.data_packets_sent,
                s.gateway_packets,
                s.total_switch_bytes,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn end_of_time_stops_the_run() {
        let mut sim = sim_with(SimConfig {
            end_of_time: Some(SimTime::from_micros(10)),
            ..SimConfig::default()
        });
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 100,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 10_000_000 },
        }]);
        sim.run();
        assert!(sim.now() <= SimTime::from_micros(10));
        let s = sim.summary();
        assert_eq!(s.flows_completed, 0);
    }

    #[test]
    fn heterogeneous_weights_split_the_budget() {
        // A strategy that gives ToRs 3x the core share.
        struct Weighted;
        impl Strategy for Weighted {
            fn name(&self) -> &'static str {
                "Weighted"
            }
            fn cache_weight(&self, role: SwitchRole) -> f64 {
                match role {
                    SwitchRole::Tor | SwitchRole::GatewayTor => 3.0,
                    _ => 1.0,
                }
            }
            fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
                // Record the capacity through a probe agent.
                struct Capacity(usize);
                impl SwitchAgent for Capacity {
                    fn on_packet(
                        &mut self,
                        _ctx: &mut SwitchCtx<'_>,
                        _pkt: &mut Packet,
                    ) -> AgentOutput {
                        AgentOutput::forward()
                    }
                    fn occupancy(&self) -> usize {
                        self.0 // repurposed: report configured capacity
                    }
                }
                Box::new(Capacity(lines))
            }
        }
        let ft = FatTreeConfig::scaled_ft8(2);
        let sim = Engine::new(SimConfig::default(), &ft, &Weighted, 3200, 4);
        let mut tor_lines = None;
        let mut core_lines = None;
        for (sw, (_, occ)) in sim.topology().switches().zip(sim.cache_occupancy()) {
            match sim.roles().role(sw.id).unwrap() {
                SwitchRole::Tor => tor_lines = Some(occ),
                SwitchRole::Core => core_lines = Some(occ),
                _ => {}
            }
        }
        let (t, c) = (tor_lines.unwrap(), core_lines.unwrap());
        // 3:1 split up to integer truncation.
        assert!(
            (t as i64 - 3 * c as i64).abs() <= 3,
            "ToR {t} lines vs core {c}"
        );
    }

    #[test]
    fn telemetry_traces_lifecycle_and_samples() {
        let mut sim = sim_with(SimConfig {
            telemetry: true,
            ..SimConfig::default()
        });
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: sim.placement().len() - 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 20_000 },
        }]);
        sim.run();
        let tracer = sim.tracer();
        let count = |k: EventKind| tracer.events().filter(|e| e.kind == k).count();
        assert!(count(EventKind::PacketSent) > 0);
        assert!(count(EventKind::SwitchIngress) > 0);
        assert!(
            count(EventKind::GatewayIngress) > 0,
            "NoCache sends every first-sighting through a gateway"
        );
        assert_eq!(
            count(EventKind::GatewayIngress),
            count(EventKind::GatewayDone),
            "a healthy run finishes every gateway translation it starts"
        );
        assert!(count(EventKind::Delivery) > 0);
        assert_eq!(count(EventKind::Drop), 0);
        assert!(!tracer.samples.is_empty(), "sampler must have fired");
        assert_eq!(tracer.dropped(), 0);
        // Events come out in chronological order.
        let ts: Vec<u64> = tracer.events().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 100,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 5_000 },
        }]);
        sim.run();
        assert_eq!(sim.tracer().total_recorded(), 0);
        assert!(sim.tracer().samples.is_empty());
    }

    #[test]
    fn traffic_matrix_records_per_pair_counts() {
        let mut sim = sim_with(SimConfig {
            record_traffic_matrix: true,
            ..SimConfig::default()
        });
        sim.add_flows([FlowSpec {
            src_vm: 2,
            dst_vm: 9,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 10_000 },
        }]);
        sim.run();
        let tm = sim.traffic_matrix();
        assert!(tm[&(2, 9)] >= 10, "forward data packets recorded");
        assert!(tm.contains_key(&(9, 2)), "ACK direction recorded");
        sim.clear_traffic_matrix();
        assert!(sim.traffic_matrix().is_empty());
    }

    /// Caches at ToRs only, with agents that just forward.
    struct TorsOnly;

    impl Strategy for TorsOnly {
        fn name(&self) -> &'static str {
            "TorsOnly"
        }
        fn cache_weight(&self, role: SwitchRole) -> f64 {
            f64::from(u8::from(role.layer() == Layer::Tor))
        }
        fn make_switch_agent(&self, _role: SwitchRole, _lines: usize) -> Box<dyn SwitchAgent> {
            struct Forward;
            impl SwitchAgent for Forward {
                fn on_packet(&mut self, _: &mut SwitchCtx<'_>, _: &mut Packet) -> AgentOutput {
                    AgentOutput::forward()
                }
            }
            Box::new(Forward)
        }
    }

    #[test]
    fn a_switch_holds_an_agent_exactly_where_its_role_weighs_above_0() {
        let ft = FatTreeConfig::scaled_ft8(2);
        let schemes: [&dyn Strategy; 2] = [&TestNoCache, &TorsOnly];
        for (scheme, shards) in schemes.into_iter().flat_map(|s| [(s, 1), (s, 3)]) {
            let sim = Engine::sharded(SimConfig::default(), &ft, scheme, 64, 4, shards);
            let mut agents = 0;
            for n in sim.topology().nodes() {
                let weighs = sim
                    .roles()
                    .role(n.id)
                    .is_some_and(|role| scheme.cache_weight(role) > 0.0);
                assert_eq!(sim.agent(n.id).is_some(), weighs, "{n:?}");
                agents += usize::from(weighs);
            }
            let caches = SwitchRole::ALL
                .into_iter()
                .any(|r| scheme.cache_weight(r) > 0.0);
            assert_eq!(agents > 0, caches, "{} at {shards} shards", scheme.name());
        }
    }

    #[test]
    fn installing_at_a_switch_without_an_agent_installs_and_traces_nothing() {
        let mut sim = sim_with(SimConfig {
            telemetry: true,
            ..SimConfig::default()
        });
        let (tor, vm) = (sim.topology().switches().next().unwrap().id, 3);
        let wrong = Pip(0xdead);
        assert_ne!(sim.placement().lookup(Vip(vm)), Some(wrong));
        sim.install_cache_entries(tor, true, &[(Vip(vm), wrong)]);
        assert!(sim.agent(tor).is_none());
        assert!(sim.cache_occupancy().iter().all(|&(_, occ)| occ == 0));
        assert!(sim.stale_cache_entries().is_empty());
        assert_eq!(sim.tracer().total_recorded(), 0);
    }

    #[test]
    fn overlapping_loss_windows_clear_exactly() {
        let us = SimTime::from_micros;
        let loss = |link, rate, from, until| FaultEvent::LossRate {
            link,
            rate,
            from: us(from),
            until: us(until),
        };
        // The window that opened first closes first; then the other order,
        // with the inner window on one link only.
        for plan in [
            [loss(None, 0.1, 10, 30), loss(None, 0.2, 20, 40)],
            [loss(None, 0.1, 10, 40), loss(Some(LinkId(0)), 0.2, 20, 30)],
        ] {
            let mut sim = small_sim();
            sim.apply_fault_plan(FaultPlan::from_events(plan).unwrap());
            sim.run_until(us(25));
            assert!(
                sim.ctl.loss[&LinkId(0)].0 > 0.29,
                "both windows cover link 0"
            );
            sim.run_until(us(50));
            assert!(sim.ctl.loss.is_empty(), "a rate outlives its windows");
        }
    }
}
