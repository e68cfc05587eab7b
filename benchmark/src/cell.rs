//! The repetitions of one workload, in a process of their own so that the
//! peak resident set is theirs alone. The process prints one flat JSON object.
//!
//! Every repetition of a cell does the same work, cut into the same slices
//! (a few hundred simulator events, or one control-plane batch), and what a
//! shared host adds to a slice is never negative: a neighbour on the core or
//! in the cache, a vCPU that is taken away for a few milliseconds. So the
//! time a cell reports is the sum over slices of each slice's fastest
//! observation ([`Timings`]). On the sandbox a 50 us compute loop's fastest
//! pass repeats to 0.5 % over a minute in which its median moves by 20 %, and
//! over windows of twenty repetitions of `ft8-hadoop` the slice floors summed
//! spread 9 % where the fastest whole repetition spread 21 % and the median
//! 29 % (README).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sv2p_bench::cli;
use sv2p_netsim::Engine;
use sv2p_simcore::{SimRng, SimTime};
use sv2p_telemetry::json::JsonObj;
use sv2p_telemetry::profile::Histogram;
use sv2p_telemetry::Phase;
use v2p_controlplane::{
    seed_pip, seed_vip, CtlClient, CtlOp, CtlReply, CtlServer, RequestBatch, StripedControlPlane,
};

use crate::host;
use crate::kernels::{ctl_kernels, sim_kernels, SimObserved};
use crate::runner::OUT_DIR;
use crate::spans::SpanLog;
use crate::workloads::{sim_inputs, Sizes, Workload, CTL_BATCH, CTL_INVALIDATE_PCT, CTL_STRIPES};

/// What a cell is asked to do.
#[derive(Debug, Clone)]
pub struct CellArgs {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// Profile the engine; on one shard also run the kernel loops and write
    /// the span file.
    pub traced: bool,
    /// Shards to run on: 1, or what [`Workload::also_on_shards`] names.
    pub shards: u16,
    /// Repeat until this many seconds have passed (and [`Timings::enough`]).
    pub seconds: f64,
}

/// Simulated time one step of a sliced run advances.
const STEP_NS: u64 = 100;

/// Events after which a sliced run closes a slice: 50-100 us of host time.
const SLICE_EVENTS: u64 = 256;

/// What the repetitions of a cell took.
#[derive(Debug, Default)]
struct Timings {
    /// Set-up of each repetition, seconds.
    setup_s: Vec<f64>,
    /// The whole measured run of each repetition, seconds.
    run_s: Vec<f64>,
    /// Fastest observation of each slice, nanoseconds.
    floor_ns: Vec<u64>,
    /// Repetitions folded into `floor_ns`.
    sliced: usize,
}

impl Timings {
    /// Folds one repetition's slices into the floors. Repetitions of one
    /// seed execute the same events, so they cut the same slices.
    fn fold(&mut self, slices: &[u64]) -> Result<(), String> {
        if self.sliced == 0 {
            self.floor_ns = slices.to_vec();
        } else if slices.len() != self.floor_ns.len() {
            return Err(format!(
                "a repetition cut {} slices, the first cut {}",
                slices.len(),
                self.floor_ns.len()
            ));
        } else {
            for (floor, &ns) in self.floor_ns.iter_mut().zip(slices) {
                *floor = (*floor).min(ns);
            }
        }
        self.sliced += 1;
        Ok(())
    }

    /// The run on an undisturbed host, seconds: the slice floors summed, or
    /// the fastest whole repetition where none was sliced.
    fn run_floor_s(&self) -> f64 {
        if self.sliced > 0 {
            self.floor_ns.iter().sum::<u64>() as f64 / 1e9
        } else {
            fastest(&self.run_s)
        }
    }

    /// Whether the cell may stop: two sliced repetitions where it slices
    /// (a floor over one is no floor), one repetition otherwise.
    fn enough(&self, slicing: bool) -> bool {
        if slicing {
            self.sliced >= 2
        } else {
            !self.run_s.is_empty()
        }
    }

    /// Whether another repetition as long as the longest so far would end
    /// after `seconds` since `started`.
    fn out_of_time(&self, started: Instant, seconds: f64) -> bool {
        let longest = self
            .setup_s
            .iter()
            .zip(&self.run_s)
            .map(|(s, r)| s + r)
            .fold(0.0, f64::max);
        started.elapsed().as_secs_f64() + longest > seconds
    }

    /// The figures every cell reports, `units` being its offered work.
    fn report(&self, cell: &mut Cell, units: f64) {
        let floor_s = self.run_floor_s();
        let median_s = median(&self.run_s);
        cell.put("run_ns_per_unit", floor_s * 1e9 / units);
        cell.put("setup_s", fastest(&self.setup_s));
        cell.put("rep.run_median_s", median_s);
        cell.put("rep.run_fastest_s", fastest(&self.run_s));
        cell.put("host.repetitions", self.run_s.len() as f64);
        cell.put("host.disturbance", median_s / floor_s - 1.0);
    }
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// What a cell measured: metric values by name, the simulated statistics'
/// digest, and the outcome of its own checks.
#[derive(Debug, Default)]
pub struct Cell {
    pub values: Vec<(String, f64)>,
    pub digest: String,
    /// Empty when every check passed.
    pub failure: String,
}

impl Cell {
    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn fail(&mut self, why: String) {
        if self.failure.is_empty() {
            self.failure = why;
        }
    }

    /// The repetition's one line of output.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new();
        obj.str("digest", &self.digest)
            .str("failure", &host::json_safe(&self.failure));
        for (name, value) in &self.values {
            obj.f64(name, *value);
        }
        obj.finish()
    }
}

/// FNV-1a over the simulated statistics: a change that only makes the
/// simulator faster must leave this identical.
fn digest_of(text: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

pub fn run(args: &CellArgs) -> Cell {
    if args.workload.is_sim() {
        sim_cell(args)
    } else {
        ctl_cell(args)
    }
}

/// Runs `sim` to its end, `end_ns` of simulated time away, in steps of
/// [`STEP_NS`], and pushes the host time of each slice of [`SLICE_EVENTS`] or
/// more events. Where the cuts fall depends on event counts alone.
fn run_sliced(sim: &mut Engine, end_ns: u64, slices: &mut Vec<u64>) {
    slices.clear();
    let mut cut = Instant::now();
    let mut events_at_cut = 0;
    let mut t_ns = 0;
    while t_ns < end_ns {
        t_ns += STEP_NS;
        sim.run_until(SimTime::from_nanos(t_ns));
        let events = sim.events_executed();
        if events - events_at_cut >= SLICE_EVENTS {
            let now = Instant::now();
            slices.push((now - cut).as_nanos() as u64);
            cut = now;
            events_at_cut = events;
        }
    }
    sim.run();
    slices.push(cut.elapsed().as_nanos() as u64);
}

/// What only the first repetition of a simulator cell can say: the process
/// is fresh, so memory is this run's alone, and where the run ends is not
/// known before it.
struct FirstRep {
    digest: String,
    end_ns: u64,
    setup_rss: u64,
    peak_rss: u64,
}

fn sim_cell(a: &CellArgs) -> Cell {
    let mut cell = Cell::default();
    let mut log = SpanLog::default();
    let root = log.open("cell", None);
    let sizes = Sizes::of(a.workload, a.smoke);
    // The profiler reads the clock around every event and the sharded engine
    // synchronises at every `run_until`, so neither is sliced.
    let slicing = !a.traced && a.shards == 1;
    let started = Instant::now();
    let mut timings = Timings::default();
    let mut slices = Vec::new();
    let mut first: Option<FirstRep> = None;
    let (mut attempted, mut failed) = (0, 0);

    let (inputs, sim, summary, summary_s, cpu_s) = loop {
        let setup = log.open("cell.setup", Some(root));
        let inputs = sim_inputs(a.workload, a.seed, sizes, a.shards, a.traced);
        let mut sim = inputs.spec.build();
        timings.setup_s.push(log.close(setup));
        let setup_rss = host::rss_bytes();

        let cpu_before = host::cpu_time_s();
        let run = log.open("netsim.run", Some(root));
        match &first {
            Some(first) if slicing => run_sliced(&mut sim, first.end_ns, &mut slices),
            _ => sim.run(),
        }
        timings.run_s.push(log.close(run));
        let cpu_s = host::cpu_time_s() - cpu_before;

        let (summary, summary_s) = log.time("metrics.summary", Some(root), || sim.summary());
        let digest = digest_of(&format!("{}|{summary:?}", sim.events_executed()));
        if summary.data_packets_delivered > summary.data_packets_sent {
            cell.fail(format!(
                "delivered {} > sent {}",
                summary.data_packets_delivered, summary.data_packets_sent
            ));
        }
        if summary.flows_completed > summary.flows {
            cell.fail(format!(
                "completed {} > started {}",
                summary.flows_completed, summary.flows
            ));
        }
        attempted += summary.flows;
        failed += summary.flows.saturating_sub(summary.flows_completed);
        match &first {
            None => {
                first = Some(FirstRep {
                    digest,
                    end_ns: sim.now().as_nanos(),
                    setup_rss,
                    peak_rss: cli::peak_rss_bytes(),
                })
            }
            // Simulated statistics are a function of the seed alone: every
            // repetition, sliced or not, must reproduce them.
            Some(first) if first.digest != digest => cell.fail(format!(
                "digest {digest} differs from {} of the first repetition",
                first.digest
            )),
            Some(_) if slicing => {
                if let Err(why) = timings.fold(&slices) {
                    cell.fail(why);
                }
            }
            Some(_) => {}
        }
        let done = timings.enough(slicing) && timings.out_of_time(started, a.seconds);
        if done || !cell.failure.is_empty() {
            break (inputs, sim, summary, summary_s, cpu_s);
        }
    };
    let first = first.expect("the loop ran once");
    cell.digest = first.digest;
    cell.put("check.attempted", attempted as f64);
    cell.put("check.failed", failed as f64);

    let units = inputs.offered_packets.max(1) as f64;
    timings.report(&mut cell, units);
    cell.put("peak_rss_mb", first.peak_rss as f64 / 1e6);

    let events = sim.events_executed();
    let run_s = median(&timings.run_s);
    cell.put("netsim.events", events as f64);
    cell.put("netsim.events_per_s", events as f64 / run_s);
    cell.put("netsim.run_s", run_s);
    cell.put("netsim.peak_queue", sim.peak_queue() as f64);
    cell.put("netsim.peak_arena", sim.peak_arena() as f64);
    cell.put("netsim.setup_rss_mb", first.setup_rss as f64 / 1e6);
    cell.put("transport.retransmissions", summary.retransmissions as f64);
    cell.put("vnet.gateway_packets", summary.gateway_packets as f64);
    cell.put("vnet.migrations", summary.migrations as f64);
    let v2p_bytes = sim.db().resident_bytes() + sim.placement().resident_bytes();
    cell.put("vnet.v2p_state_mb", v2p_bytes as f64 / 1e6);
    cell.put("switchv2p.hit_rate", summary.hit_rate);
    cell.put("switchv2p.stale_hits", summary.stale_cache_hits as f64);
    cell.put(
        "switchv2p.invalidation_packets",
        summary.invalidation_packets as f64,
    );
    cell.put(
        "switchv2p.misdelivered",
        summary.misdelivered_packets as f64,
    );
    cell.put("metrics.summary_s", summary_s);
    cell.put("traces.gen_s", inputs.gen_s);
    if sim.shards() > 1 {
        // Of the last repetition.
        let last_run_s = timings.run_s[timings.run_s.len() - 1];
        cell.put(
            "netsim.sharded.run_ns_per_unit",
            timings.run_floor_s() * 1e9 / units,
        );
        cell.put("netsim.sharded.windows", sim.window_count() as f64);
        cell.put("netsim.sharded.cut_events", sim.cut_events() as f64);
        cell.put("netsim.sharded.cpu_s", cpu_s);
        cell.put("netsim.sharded.cores_busy", cpu_s / last_run_s);
    }

    if a.traced {
        // The profile of the last repetition.
        let p = sim.profiler();
        let per_call = |phase: Phase| match p.phase_calls(phase) {
            0 => 0.0,
            calls => p.phase_ns(phase) as f64 / calls as f64,
        };
        for (name, phase) in [
            ("netsim.link_arrival_ns", Phase::LinkArrival),
            ("netsim.link_free_ns", Phase::LinkFree),
            ("netsim.host_forward_ns", Phase::HostForward),
            ("netsim.re_inject_ns", Phase::ReInject),
            ("simcore.pop_ns", Phase::Pop),
            ("transport.flow_start_ns", Phase::FlowStart),
            ("transport.rto_timer_ns", Phase::RtoTimer),
            ("vnet.gateway_ns", Phase::Gateway),
            ("vnet.migrate_ns", Phase::Migrate),
        ] {
            cell.put(name, per_call(phase));
        }
        let link_arrival_calls = p.phase_calls(Phase::LinkArrival);
        cell.put("netsim.link_arrival_calls", link_arrival_calls as f64);
        if sim.shards() > 1 {
            for (name, phase) in [
                ("netsim.sharded.worker_replay_frac", Phase::WorkerReplay),
                ("netsim.sharded.barrier_wait_frac", Phase::BarrierWait),
                ("netsim.sharded.journal_merge_frac", Phase::JournalMerge),
                ("netsim.sharded.cut_exchange_frac", Phase::CutExchange),
                ("netsim.sharded.window_advance_frac", Phase::WindowAdvance),
                ("netsim.sharded.global_exec_frac", Phase::GlobalExec),
            ] {
                cell.put(name, p.frac(phase));
            }
            cell.put("netsim.sharded.imbalance_cv", p.imbalance_cv());
        } else {
            let observed = SimObserved {
                sim: &sim,
                summary: &summary,
                fabric: &inputs.spec.topology,
                cache_entries: inputs.spec.cache_entries,
                seed: a.seed,
                link_arrival_calls,
                run_s,
            };
            for (name, value) in sim_kernels(&mut log, root, &observed) {
                cell.put(name, value);
            }
        }
    }
    log.close(root);
    if a.traced && a.shards == 1 {
        write_spans(&log, a, &mut cell);
    }
    cell
}

fn write_spans(log: &SpanLog, a: &CellArgs, cell: &mut Cell) {
    let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", a.workload.name()));
    if let Err(e) = log.write_jsonl(&path, a.workload.name(), a.seed) {
        cell.fail(format!("cannot write {}: {e}", path.display()));
    }
}

/// Client-side tallies of the closed loop.
#[derive(Default)]
struct Tally {
    ops: u64,
    lookups: u64,
    hits: u64,
    writes: u64,
    applied: u64,
    rejected: u64,
}

/// The next request: lookups of random preloaded keys; with the configured
/// chance an invalidate paired with a reinstall of the same key, as
/// `sv2p-ctlbench` sends them, so the table keeps its size.
fn next_batch(rng: &mut SimRng, mappings: u32, req: &mut RequestBatch) {
    let p_inv = CTL_INVALIDATE_PCT / 100.0;
    req.id += 1;
    req.ops.clear();
    while req.ops.len() < CTL_BATCH {
        let i = rng.gen_range(0..mappings);
        if req.ops.len() + 1 < CTL_BATCH && rng.chance(p_inv) {
            req.ops.push(CtlOp::Invalidate { vip: seed_vip(i) });
            req.ops.push(CtlOp::Install {
                vip: seed_vip(i),
                pip: seed_pip(i),
            });
        } else {
            req.ops.push(CtlOp::Lookup { vip: seed_vip(i) });
        }
    }
}

fn ctl_cell(a: &CellArgs) -> Cell {
    let mut cell = Cell::default();
    let mut log = SpanLog::default();
    let root = log.open("cell", None);
    let sizes = Sizes::of(a.workload, a.smoke);
    let mappings = sizes.ctl_mappings;
    let started = Instant::now();
    let mut timings = Timings::default();
    let mut slices = Vec::new();
    let mut rtt_ns = Histogram::new();
    let mut total = Tally::default();
    // Of the first repetition, when the process is fresh.
    let mut first: Option<(String, u64)> = None;

    // Every repetition preloads a table of its own and sends the same batch
    // stream, so batch `k` is the same work in each: a batch is a slice.
    let (state, stats, preload_s, ops) = loop {
        let setup = log.open("cell.setup", Some(root));
        let state = Arc::new(StripedControlPlane::new(CTL_STRIPES));
        let ((), preload_s) = log.time("controlplane.preload", Some(setup), || {
            state.preload((0..mappings).map(|i| (seed_vip(i), seed_pip(i))));
        });
        let mut server =
            CtlServer::spawn("127.0.0.1:0", Arc::clone(&state)).expect("bind loopback");
        let mut client = CtlClient::connect(server.addr()).expect("connect to loopback server");
        timings.setup_s.push(log.close(setup));
        let epoch_before = state.epoch();

        let mut rng = SimRng::new(a.seed);
        let mut tally = Tally::default();
        let mut req = RequestBatch::new(0);
        slices.clear();
        let run = log.open("controlplane.closed_loop", Some(root));
        let mut cut = Instant::now();
        while tally.ops < sizes.ctl_ops {
            next_batch(&mut rng, mappings, &mut req);
            let sent = Instant::now();
            let rep = client.call(&req).expect("control-plane call");
            rtt_ns.record(sent.elapsed().as_nanos() as u64);
            tally.ops += req.ops.len() as u64;
            for (op, reply) in req.ops.iter().zip(&rep.replies) {
                match (op, reply) {
                    (CtlOp::Lookup { .. }, CtlReply::Found { .. }) => {
                        tally.lookups += 1;
                        tally.hits += 1;
                    }
                    (CtlOp::Lookup { .. }, _) => tally.lookups += 1,
                    (_, CtlReply::Applied { .. }) => {
                        tally.writes += 1;
                        tally.applied += 1;
                    }
                    (_, _) => {
                        tally.writes += 1;
                        tally.rejected += 1;
                    }
                }
            }
            let now = Instant::now();
            slices.push((now - cut).as_nanos() as u64);
            cut = now;
        }
        timings.run_s.push(log.close(run));
        if let Err(why) = timings.fold(&slices) {
            cell.fail(why);
        }

        let stats = state.stats();
        if stats.ops != tally.ops
            || stats.lookups != tally.lookups
            || stats.hits != tally.hits
            || stats.installs + stats.invalidates != tally.applied
            || stats.rejected != tally.rejected
        {
            cell.fail(format!(
                "client and server counters disagree: server ops {} lookups {} hits {} writes {} rejected {}, \
                 client ops {} lookups {} hits {} applied {} rejected {}",
                stats.ops,
                stats.lookups,
                stats.hits,
                stats.installs + stats.invalidates,
                stats.rejected,
                tally.ops,
                tally.lookups,
                tally.hits,
                tally.applied,
                tally.rejected
            ));
        }
        if tally.hits != tally.lookups {
            cell.fail(format!(
                "{} of {} lookups missed a preloaded key",
                tally.lookups - tally.hits,
                tally.lookups
            ));
        }
        if state.epoch() - epoch_before != tally.applied {
            cell.fail(format!(
                "epoch advanced by {} for {} accepted writes",
                state.epoch() - epoch_before,
                tally.applied
            ));
        }
        if state.len() as u64 != u64::from(mappings) {
            cell.fail(format!(
                "table holds {} mappings, preloaded {mappings}",
                state.len()
            ));
        }
        // No simulated statistics here; the digest covers the deterministic
        // tallies, which every repetition of a seed must reproduce.
        let digest = digest_of(&format!(
            "{}|{}|{}|{}",
            tally.ops, tally.lookups, tally.writes, tally.hits
        ));
        match &first {
            None => first = Some((digest, cli::peak_rss_bytes())),
            Some((first_digest, _)) if *first_digest != digest => cell.fail(format!(
                "digest {digest} differs from {first_digest} of the first repetition"
            )),
            Some(_) => {}
        }
        total.ops += tally.ops;
        total.lookups += tally.lookups;
        total.hits += tally.hits;
        total.rejected += tally.rejected;

        drop(client);
        server.shutdown();
        let done = timings.enough(true) && timings.out_of_time(started, a.seconds);
        if done || !cell.failure.is_empty() {
            break (state, stats, preload_s, tally.ops);
        }
    };
    let (digest, peak_rss) = first.expect("the loop ran once");
    cell.digest = digest;
    let mismatched = total.lookups - total.hits;
    cell.put("check.attempted", total.ops as f64);
    cell.put("check.failed", (total.rejected + mismatched) as f64);

    timings.report(&mut cell, ops as f64);
    cell.put("peak_rss_mb", peak_rss as f64 / 1e6);
    let run_s = median(&timings.run_s);
    let rtt_p50_us = rtt_ns.percentile(50.0) as f64 / 1e3;
    cell.put("controlplane.rtt_p50_us", rtt_p50_us);
    cell.put(
        "controlplane.rtt_p99_us",
        rtt_ns.percentile(99.0) as f64 / 1e3,
    );
    cell.put("controlplane.exec_p50_us", stats.exec_p50_ns as f64 / 1e3);
    cell.put("controlplane.exec_p99_us", stats.exec_p99_ns as f64 / 1e3);
    cell.put("controlplane.ops_per_s", ops as f64 / run_s);
    cell.put("controlplane.lookups_per_s", stats.lookups as f64 / run_s);
    cell.put("controlplane.rejected", total.rejected as f64);
    cell.put("controlplane.preload_s", preload_s);

    if a.traced {
        // The batch stream the loop sent, replayed stage by stage against
        // the last repetition's table.
        let mut rng = SimRng::new(a.seed);
        let mut req = RequestBatch::new(0);
        let batches: Vec<RequestBatch> = (0..2_048)
            .map(|_| {
                next_batch(&mut rng, mappings, &mut req);
                req.clone()
            })
            .collect();
        let stages = ctl_kernels(&mut log, root, &state, &batches);
        let stage_sum_us: f64 = stages.iter().map(|(_, ns)| ns / 1e3).sum();
        for (name, value) in stages {
            cell.put(name, value);
        }
        // What is left of a round trip: sockets and the hand-off between
        // the client thread and the handler thread.
        cell.put("controlplane.transport_us", rtt_p50_us - stage_sum_us);
    }
    log.close(root);
    if a.traced {
        write_spans(&log, a, &mut cell);
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_are_each_slices_fastest_observation_summed() {
        let mut t = Timings {
            run_s: vec![9e-9, 8e-9],
            ..Timings::default()
        };
        assert_eq!(t.run_floor_s(), 8e-9, "unsliced: the fastest repetition");
        assert!(t.enough(false) && !t.enough(true));

        t.fold(&[5, 1, 3])
            .expect("the first repetition sets the cuts");
        t.fold(&[2, 4, 3]).expect("same cuts");
        assert_eq!(t.floor_ns, [2, 1, 3]);
        assert_eq!(t.run_floor_s(), 6e-9);
        assert!(t.enough(true));
        assert!(t.fold(&[1, 1]).is_err(), "a repetition that cut otherwise");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
