//! Several shards, one thread: conservative pod-partitioned windows that
//! reproduce the one-shard execution bit-for-bit.
//!
//! Sharding is an *equivalence oracle*, not a speed path: it re-executes a
//! run with the fabric cut into pods and every order-sensitive effect
//! journaled, and must arrive at the same bytes. An order dependence (a
//! tie-break on hash-map order, a planner reading shards in the wrong
//! order) shows as a diff; none of that needs concurrency, so the shards
//! take turns on the caller's thread (DESIGN.md has the arithmetic and what
//! would bring threads back).
//!
//! # Architecture
//!
//! With more than one shard, each shard gets a [`Lane`]: a *persistent*
//! private calendar holding every pending event of its partition (workload
//! events are inserted at the owner shard at registration and live there
//! until they execute) plus the bookkeeping of the window being executed.
//! The driver's calendar then holds only global events (faults,
//! migrations, churn marks, telemetry samples), and its sequence counter
//! is the global `(time, seq)` authority.
//!
//! The run proceeds in conservative lookahead windows:
//!
//! 1. The window boundary is one lookahead (the partition's minimum
//!    cut-link delay) past the earliest pending event anywhere, clipped to
//!    the `(time, seq)` key of the next global event. Every shard with work
//!    before the boundary drains its own calendar, in shard order — the
//!    same run loop and handlers as the one-shard engine, with the
//!    [`Journal`] sink in place of the direct one. Pod-local follow-up
//!    events that land inside the window execute immediately under a
//!    provisional key; events past the boundary park, arena handles
//!    intact. A packet bound for another shard leaves its sender's arena
//!    when it is offered to the cut link — the link already knows when its
//!    last bit leaves (`link`) — and arrives no earlier than the offer plus
//!    the link's delay, which is at least one lookahead past the window's
//!    first event. Because the boundary never exceeds the lookahead, no
//!    cut-link packet emitted inside a window can be *due* inside that
//!    same window on another shard: the order the shards replay in cannot
//!    matter.
//! 2. The journal holds only the order-sensitive residue of each executed
//!    event: how many schedulings it performed, any packets bound for
//!    other shards over a cut link, and the observables (flow-lifecycle
//!    metrics, trace events, packet-id allocations). The driver
//!    k-way-merges the blocks back into global `(time, seq)` order,
//!    granting each scheduling the exact global sequence number the
//!    one-shard engine would have assigned — so summaries and telemetry
//!    are byte-identical regardless of shard count.
//! 3. Cut exchange, at once: each shard's parked events go onto its
//!    calendar under their granted seqs, and the cut packets routed to it
//!    (resolved to theirs) into its arena and onto its calendar. Between
//!    windows no state waits anywhere but a calendar, so a pause
//!    (`run_until` returning), a global event and a read all see every
//!    pending event where the one-shard engine would have it.
//! 4. Global events execute at their exact `(time, seq)` position between
//!    windows: the driver writes the control state once, and each shard
//!    applies the part that concerns state it owns.
//!
//! # Migrations
//!
//! A migration rewrites the placement, so event ownership (derived from
//! the placement) flips to the new host's shard for everything scheduled
//! afterwards. When the old and new hosts live on different shards, the
//! driver also moves the affected flows' transport state (TCP
//! sender/receiver machines, RTO generations, UDP delivery counters) *and
//! their still-pending calendar events* — global `(time, seq)` keys intact
//! — from the old owner to the new one: a plain move.

use std::time::Instant;

use sv2p_packet::{Packet, PacketId};
use sv2p_simcore::{
    merge_journals, EventQueue, FxHashMap, JournalBlock, SeqRef, ShardState, SimTime,
};
use sv2p_telemetry::profile::{HistKind, Phase, Profiler};
use sv2p_telemetry::TraceEvent;
use sv2p_topology::LinkId;

use crate::effects::{Effects, Event, Master, MetricOp, NoProbe};
use crate::engine::exec_global;
use crate::sim::Shard;
use crate::world::{Control, World};

/// What a shard needs, besides its state, to run beside others.
pub(crate) struct Lane {
    /// The shard's persistent calendar. Pre-window events carry real
    /// global seqs; children scheduled mid-window carry provisional ones
    /// that never survive the window.
    pub events: EventQueue<Event>,
    /// Per-window child-ordinal counter.
    ords: ShardState,
    /// Boundary time of the current window: follow-up events at or beyond
    /// it park until the merge grants their real seqs.
    window_end: SimTime,
    /// Past-boundary events of the window being executed, arena handles
    /// intact: `(window ordinal, due time, event)`. Empty between windows.
    parked: Vec<(u32, SimTime, Event)>,
    /// Next provisional packet id.
    prov_next: u64,
}

impl Lane {
    pub fn new() -> Self {
        Lane {
            events: EventQueue::new(),
            ords: ShardState::new(),
            window_end: SimTime::ZERO,
            parked: Vec::new(),
            prov_next: 0,
        }
    }
}

/// A packet crossing the cut, by value. `ord` is the scheduling's
/// window-wide ordinal, which the merge resolves to a real global sequence
/// number; the event reaches shard `to` when the window's merge is done.
/// Ownership cannot drift before delivery: placement only changes at
/// global events.
struct CutEvent {
    to: usize,
    ord: u32,
    at: SimTime,
    link: LinkId,
    pkt: Packet,
}

/// A cut packet resolved to its global key, bound for its target's calendar.
struct Arrival {
    at: SimTime,
    seq: u64,
    link: LinkId,
    pkt: Packet,
}

/// One journaled observable, in handler execution order.
enum JournalOp {
    /// The handler allocated a packet id (journaled only while tracing, to
    /// map the shard's provisional id to the global id stream).
    PktAlloc(u64),
    Metric(MetricOp),
    Trace(TraceEvent),
}

/// Everything order-sensitive one event execution did, tagged with when
/// and as-whom it ran so the driver can merge blocks across shards.
/// `scheds` counts *every* scheduling the handler performed (local,
/// parked, or cut) — the driver grants that many consecutive global seqs.
/// Events with no schedulings and no observables leave no block at all.
struct ExecBlock {
    time: SimTime,
    seq_ref: SeqRef,
    scheds: u32,
    cuts: Vec<CutEvent>,
    ops: Vec<JournalOp>,
}

impl JournalBlock for ExecBlock {
    fn time(&self) -> SimTime {
        self.time
    }
    fn seq_ref(&self) -> SeqRef {
        self.seq_ref
    }
}

/// The journaling sink: schedulings stay on the shard's own lane, the
/// observables are written down per executed event.
struct Journal<'a> {
    shard: usize,
    lane: &'a mut Lane,
    tracing: bool,
    /// The block of the event currently dispatching.
    scheds: u32,
    cuts: Vec<CutEvent>,
    ops: Vec<JournalOp>,
    blocks: Vec<ExecBlock>,
}

impl Effects for Journal<'_> {
    const SHARDED: bool = true;

    fn calendar(&mut self) -> &mut EventQueue<Event> {
        &mut self.lane.events
    }

    fn now(&self) -> SimTime {
        self.lane.events.now()
    }

    /// Inside the window the event goes straight onto the lane under a
    /// provisional key; at or past the boundary it parks until the merge
    /// grants its real global seq. Every scheduling burns one window
    /// ordinal, so the driver's sequence counter stays in lockstep with
    /// the one-shard calendar.
    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.scheds += 1;
        let lane = &mut *self.lane;
        if at < lane.window_end {
            lane.ords.sched_local(&mut lane.events, at, ev);
        } else {
            let ord = lane.ords.sched_deferred();
            lane.parked.push((ord, at, ev));
        }
    }

    fn schedule_cut(&mut self, to: usize, at: SimTime, link: LinkId, pkt: Packet) {
        self.scheds += 1;
        let ord = self.lane.ords.sched_deferred();
        self.cuts.push(CutEvent {
            to,
            ord,
            at,
            link,
            pkt,
        });
    }

    /// Provisional ids live in a per-shard namespace far above any
    /// realistic global id, so a collision with a real id is impossible
    /// and a leak (an unmapped provisional id in a trace) is obvious.
    fn alloc_pkt_id(&mut self) -> PacketId {
        let id = ((self.shard as u64 + 1) << 48) | self.lane.prov_next;
        self.lane.prov_next += 1;
        if self.tracing {
            self.ops.push(JournalOp::PktAlloc(id));
        }
        PacketId(id)
    }

    fn metric(&mut self, op: MetricOp) {
        self.ops.push(JournalOp::Metric(op));
    }

    fn tracing(&self) -> bool {
        self.tracing
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.ops.push(JournalOp::Trace(ev));
    }

    fn executed(&mut self, time: SimTime, seq: u64) {
        if self.scheds > 0 || !self.cuts.is_empty() || !self.ops.is_empty() {
            self.blocks.push(ExecBlock {
                time,
                seq_ref: ShardState::resolve(seq),
                scheds: std::mem::take(&mut self.scheds),
                cuts: std::mem::take(&mut self.cuts),
                ops: std::mem::take(&mut self.ops),
            });
        }
    }
}

/// Executes one window of `shard`: every pending event strictly before the
/// boundary key `(bt, bseq)`, plus any causal children that land inside the
/// window.
fn run_window(
    shard: &mut Shard,
    lane: &mut Lane,
    ctl: &Control,
    bt: SimTime,
    bseq: u64,
) -> Vec<ExecBlock> {
    lane.window_end = bt;
    lane.ords.open_window();
    let mut journal = Journal {
        shard: shard.id,
        tracing: shard.world.cfg.telemetry.enabled,
        lane,
        scheds: 0,
        cuts: Vec::new(),
        ops: Vec::new(),
        blocks: Vec::new(),
    };
    let global = shard.drain(ctl, &mut journal, &mut NoProbe, bt, bseq);
    debug_assert!(global.is_none(), "global events live on the driver");
    journal.blocks
}

/// Moves the transport state and the still-pending calendar events of
/// every flow with an endpoint on VM `vm` from the shard that owned the
/// VM's old host to the one owning its new host.
fn move_vm(ctl: &Control, vm: usize, from: (&mut Shard, &mut Lane), to: (&mut Shard, &mut Lane)) {
    for (i, spec) in ctl.flows.iter().enumerate() {
        let (old, new) = (&mut from.0.flows[i], &mut to.0.flows[i]);
        // The sender machine evolves where ACKs are delivered: the source
        // VM's host. Taking it matters: the end-of-run fold sums transport
        // statistics over *all* shards, so a moved machine must not stay
        // behind as a double-counted copy.
        if spec.src_vm == vm && spec.is_tcp() {
            new.tcp_tx = old.tcp_tx.take();
            new.rto_gen = old.rto_gen;
            new.completed = old.completed;
        }
        // The receiver side evolves on the destination VM's host.
        if spec.dst_vm == vm {
            new.tcp_rx = std::mem::take(&mut old.tcp_rx);
            new.udp_delivered = std::mem::take(&mut old.udp_delivered);
            if !spec.is_tcp() {
                // TCP completion is authoritative on the sender side.
                new.completed = old.completed;
            }
        }
    }
    // Flow-addressed events carry no packet, so they move as they are.
    let moved = from.1.events.extract_if(|ev| match ev {
        Event::FlowStart(i) | Event::UdpSend { flow: i, .. } | Event::RtoTimer { flow: i, .. } => {
            ctl.flows[*i as usize].src_vm == vm
        }
        _ => false,
    });
    for e in moved {
        to.1.events.schedule_at_seq(e.time, e.seq, e.payload);
    }
}

/// Driver-side totals of a windowed run that outlive it.
#[derive(Default)]
pub(crate) struct WindowStats {
    /// Windows in which at least one shard had work.
    pub windows: u64,
    /// Cut-link events exchanged between shards.
    pub cut_events: u64,
    /// Provisional → global packet-id map (tracing only).
    pkt_map: FxHashMap<u64, u64>,
}

/// Runs all events up to and including `horizon`, the shards taking turns
/// on the caller's thread. Resumable: between windows every pending event
/// is on a calendar, so interleaving runs with interventions behaves
/// exactly like the one-shard engine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_windows(
    world: &World,
    ctl: &mut Control,
    shards: &mut [Shard],
    lanes: &mut [Lane],
    master: &mut Master,
    stats: &mut WindowStats,
    profiler: &mut Profiler,
    horizon: SimTime,
) {
    let n = shards.len();
    let lookahead = world.partition.lookahead_ns();
    let prof = profiler.enabled();
    loop {
        // Window boundary: one lookahead past the earliest pending event
        // anywhere, clipped so events at exactly `horizon` still run — and
        // closed early at the next global event's exact (time, seq) key,
        // which preserves the interleaving of same-instant shard events
        // around the global.
        let adv_t0 = prof.then(Instant::now);
        let gkey = master.events.peek_key();
        let shard_min = lanes.iter().filter_map(|l| l.events.peek_time()).min();
        let w0 = match gkey.map(|(gt, _)| gt).into_iter().chain(shard_min).min() {
            Some(w0) if w0 <= horizon => w0,
            _ => break,
        };
        let w_cap = SimTime::from_nanos(
            w0.as_nanos()
                .saturating_add(lookahead)
                .min(horizon.as_nanos().saturating_add(1)),
        );
        let (bt, bseq, global_due) = match gkey {
            Some((gt, gseq)) if gt < w_cap => (gt, gseq, true),
            _ => (w_cap, 0, false),
        };
        if let Some(t0) = adv_t0 {
            profiler.phase_add(Phase::WindowAdvance, t0.elapsed().as_nanos() as u64);
        }

        // Replay: every shard with an event before the boundary, in shard
        // order. Shard events at exactly `bt` precede the boundary only
        // when it is a global event's key (bseq > 0): the global was
        // scheduled earlier, so same-instant shard children sort after it
        // only if they are children of this window — which the drain
        // handles itself.
        let mut journals: Vec<Vec<ExecBlock>> = Vec::with_capacity(n);
        let (mut any_busy, mut replay_ns) = (false, 0u64);
        let (mut shard_cal, mut shard_arena) = (0u64, 0u64);
        for (s, (shard, lane)) in shards.iter_mut().zip(lanes.iter_mut()).enumerate() {
            let due = lane.events.peek_time();
            if !due.is_some_and(|nt| nt < bt || (nt == bt && bseq > 0)) {
                journals.push(Vec::new());
                continue;
            }
            any_busy = true;
            let t0 = prof.then(Instant::now);
            let blocks = run_window(shard, lane, ctl, bt, bseq);
            let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            replay_ns += ns;
            profiler.record(HistKind::ShardReplayNs, ns);
            profiler.shard_sample(s, ns, blocks.len() as u64);
            shard_cal += (lane.events.len() + lane.parked.len()) as u64;
            shard_arena += shard.arena.live() as u64;
            journals.push(blocks);
        }
        if any_busy {
            stats.windows += 1;
        }
        if prof && any_busy {
            profiler.phase_add(Phase::WorkerReplay, replay_ns);
            profiler.windows += 1;
            // Deterministic once-per-window occupancy samples, composed
            // over the shards that ran: the driver calendar holds only
            // globals, the lanes hold the workload.
            let (near, far, overflow) = master.events.occupancy_breakdown();
            profiler.record(
                HistKind::CalendarLen,
                (near + far + overflow) as u64 + shard_cal,
            );
            profiler.record(HistKind::CalendarOverflow, overflow as u64);
            profiler.record(HistKind::ArenaLive, shard_arena);
        }

        // Merge: replay the observables in global (time, seq) order, grant
        // every scheduling the global sequence number the one-shard engine
        // would have assigned, and resolve cut events to theirs.
        let merge_t0 = prof.then(Instant::now);
        let mut granted = vec![0u64; n];
        let mut arrivals: Vec<Vec<Arrival>> = (0..n).map(|_| Vec::new()).collect();
        let grants = merge_journals(journals, |shard, block: ExecBlock| {
            if prof {
                profiler.journal_blocks += 1;
                profiler.journal_ops += block.ops.len() as u64;
                profiler.record(HistKind::JournalBlockOps, block.ops.len() as u64);
            }
            let scheds = block.scheds as u64;
            let base = master.events.reserve_seqs(scheds);
            // `granted[shard]` counts this shard's schedulings in earlier
            // blocks of this window, i.e. the window-wide ordinal of this
            // block's first scheduling.
            let k = granted[shard];
            granted[shard] += scheds;
            for cut in block.cuts {
                stats.cut_events += 1;
                arrivals[cut.to].push(Arrival {
                    at: cut.at,
                    seq: base + (cut.ord as u64 - k),
                    link: cut.link,
                    pkt: cut.pkt,
                });
            }
            for op in block.ops {
                match op {
                    JournalOp::PktAlloc(prov) => {
                        stats.pkt_map.insert(prov, master.next_pkt_id);
                        master.next_pkt_id += 1;
                    }
                    JournalOp::Metric(m) => m.apply(&mut master.metrics, block.time),
                    JournalOp::Trace(mut ev) => {
                        if let Some(p) = ev.pkt {
                            ev.pkt = Some(*stats.pkt_map.get(&p).unwrap_or(&p));
                        }
                        master.tracer.record(ev);
                    }
                }
            }
            base..base + scheds
        });
        if let Some(t0) = merge_t0 {
            profiler.phase_add(Phase::JournalMerge, t0.elapsed().as_nanos() as u64);
        }

        // Cut exchange, at once: each shard's parked events go onto its
        // calendar under their granted seqs (indexed by window ordinal),
        // then the cut packets routed to it into its arena and onto its
        // calendar — all keyed so global `(time, seq)` order is preserved,
        // and nothing is left waiting anywhere but a calendar.
        let cut_t0 = prof.then(Instant::now);
        let exchange = shards
            .iter_mut()
            .zip(lanes.iter_mut())
            .zip(grants)
            .zip(arrivals);
        for (((shard, lane), grants), arrivals) in exchange {
            for (ord, at, ev) in lane.parked.drain(..) {
                lane.events.schedule_at_seq(at, grants[ord as usize], ev);
            }
            for a in arrivals {
                let pkt = shard.arena.alloc(a.pkt);
                let ev = Event::LinkArrival { link: a.link, pkt };
                lane.events.schedule_at_seq(a.at, a.seq, ev);
            }
        }
        if let Some(t0) = cut_t0 {
            profiler.phase_add(Phase::CutExchange, t0.elapsed().as_nanos() as u64);
        }

        if global_due {
            let global_t0 = prof.then(Instant::now);
            let se = master.events.pop().expect("global event due");
            debug_assert_eq!((se.time, se.seq), (bt, bseq));
            if prof {
                profiler.global_events += 1;
            }
            // A migration re-homes a VM: resolve the old and new owner
            // shards before the placement changes.
            let rehome = match se.payload {
                Event::Migrate(i) => {
                    let m = ctl.migrations[i as usize];
                    let vm = ctl
                        .placement
                        .index_of(m.vip)
                        .expect("migrating unknown VIP");
                    let old = world.shard_of(ctl.placement.node_of(vm));
                    Some((vm, old, world.shard_of(m.to_node)))
                }
                _ => None,
            };
            let lanes_done = lanes.iter().map(|l| l.events.events_executed()).sum();
            let lanes_pending = lanes.iter().map(|l| l.events.len() as u64).sum();
            exec_global(
                ctl,
                master,
                shards.iter_mut(),
                (lanes_done, lanes_pending),
                se.payload,
            );
            if let Some((vm, old, new)) = rehome.filter(|&(_, old, new)| old != new) {
                let [from, to] = shards.get_disjoint_mut([old, new]).expect("two shards");
                let [lane_from, lane_to] = lanes.get_disjoint_mut([old, new]).expect("two lanes");
                move_vm(ctl, vm, (from, lane_from), (to, lane_to));
            }
            if let Some(t0) = global_t0 {
                profiler.phase_add(Phase::GlobalExec, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}
