//! The effects sink: where a handler's order-sensitive side effects go.
//!
//! Handlers mutate the state of the shard they run on directly. What must
//! happen in *global* `(time, seq)` order — scheduling, packet-id
//! allocation, the four flow-lifecycle metric records and trace
//! records — goes through [`Effects`], and every effect applies on the
//! spot, to the driver's one calendar and recorders ([`Master`]). The sink
//! has two implementations that differ in one thing: `Master` itself (one
//! shard) never sees a packet leave its shard, and `sharded::Crossing`
//! (several) hands a packet whose link ends on another shard to the
//! driver. The sink is a type parameter of every handler, so the one-shard
//! build has no ownership test in it.

use std::time::Instant;

use sv2p_metrics::Metrics;
use sv2p_packet::{Packet, PacketId};
use sv2p_simcore::{EventQueue, SimDuration, SimTime};
use sv2p_telemetry::profile::{HistKind, Phase, Profiler};
use sv2p_telemetry::{TraceEvent, Tracer, SAMPLE_EVERY_NS};
use sv2p_topology::{LinkId, NodeId};

use crate::arena::PacketRef;
use crate::sharded::Cut;
use crate::sim::Shard;

/// Simulator events. Packet-carrying events hold an arena handle and
/// flow / plan events a `u32` index, so an event is twelve bytes — a tag and
/// two words — no matter how fat `TunnelOptions` get, and the calendar's
/// slab node around it is 24: a seq, a chain link and the event, with no
/// time, since a near slot stands for one instant.
#[derive(Debug)]
pub(crate) enum Event {
    FlowStart(u32),
    UdpSend {
        flow: u32,
        idx: u32,
    },
    LinkArrival {
        link: LinkId,
        pkt: PacketRef,
    },
    RtoTimer {
        flow: u32,
        gen: u32,
    },
    GatewayDone {
        node: NodeId,
        pkt: PacketRef,
    },
    ReInject {
        node: NodeId,
        pkt: PacketRef,
    },
    HostForward {
        node: NodeId,
        pkt: PacketRef,
    },
    Migrate(u32),
    FaultStart(u32),
    FaultEnd(u32),
    /// A churn-timeline annotation (tenant arrival/departure, migration
    /// wave): counters and telemetry only, no simulation state change.
    ChurnMark(u32),
    /// Periodic telemetry snapshot; reschedules itself while other events
    /// remain pending (so it never keeps an otherwise-finished run alive).
    TelemetrySample,
}

const _: () = assert!(std::mem::size_of::<Event>() == 12);
const _: () = assert!(EventQueue::<Event>::NODE_BYTES == 24);
const _: () = assert!(std::mem::size_of::<sv2p_simcore::ScheduledEvent<Event>>() == 32);
// A link's state and its topology entry (its far end) are one per
// directed link, 75 072 on FT32: its constants live in its class, its
// queue in a slab slot it holds while packets wait.
const _: () = assert!(std::mem::size_of::<crate::link::LinkState>() == 8);
const _: () = assert!(std::mem::size_of::<sv2p_topology::NodeId>() == 4);

impl Event {
    /// A flow or plan table index as an event carries it.
    pub fn index(i: usize) -> u32 {
        u32::try_from(i).expect("event index fits in u32")
    }

    /// Global events write control state, so the driver executes them
    /// itself, with every shard in reach, at every shard count.
    pub fn is_global(&self) -> bool {
        matches!(
            self,
            Event::Migrate(_)
                | Event::FaultStart(_)
                | Event::FaultEnd(_)
                | Event::ChurnMark(_)
                | Event::TelemetrySample
        )
    }

    /// The profiling phase charged with this event's handler.
    pub fn phase(&self) -> Phase {
        match self {
            Event::FlowStart(_) => Phase::FlowStart,
            Event::UdpSend { .. } => Phase::UdpSend,
            Event::LinkArrival { .. } => Phase::LinkArrival,
            Event::RtoTimer { .. } => Phase::RtoTimer,
            Event::GatewayDone { .. } => Phase::Gateway,
            Event::ReInject { .. } => Phase::ReInject,
            Event::HostForward { .. } => Phase::HostForward,
            Event::Migrate(_) => Phase::Migrate,
            Event::FaultStart(_) | Event::FaultEnd(_) => Phase::Fault,
            Event::ChurnMark(_) => Phase::ChurnMark,
            Event::TelemetrySample => Phase::TelemetrySample,
        }
    }
}

/// The sink for everything a handler does that is order-sensitive. Every
/// effect lands on the driver's [`Master`] as it happens; the two sinks
/// differ only in [`Effects::SHARDED`] and [`Effects::schedule_cut`].
pub(crate) trait Effects {
    /// True when other shards run beside this one, so a packet may have to
    /// leave it. A constant: the one-shard build of every handler has no
    /// ownership test in it.
    const SHARDED: bool;

    fn master(&self) -> &Master;

    fn master_mut(&mut self) -> &mut Master;

    /// Hands a packet arriving over a cut link to the shard owning the far
    /// end, by value.
    fn schedule_cut(&mut self, to: usize, at: SimTime, link: LinkId, pkt: Packet);

    /// Current virtual time: the instant of the event being executed.
    fn now(&self) -> SimTime {
        self.master().events.now()
    }

    /// Schedules a follow-up event.
    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.master_mut().events.schedule_at(at, ev);
    }

    /// See [`EventQueue::reserve_seq`].
    fn reserve_seq(&mut self) -> u64 {
        self.master_mut().events.reserve_seq()
    }

    /// Files an event under a seq [`Effects::reserve_seq`] took.
    fn schedule_at_seq(&mut self, at: SimTime, seq: u64, ev: Event) {
        self.master_mut().events.schedule_at_seq(at, seq, ev);
    }

    /// Schedules a follow-up event `d` from now.
    fn schedule_in(&mut self, d: SimDuration, ev: Event) {
        let at = self.now() + d;
        self.schedule(at, ev);
    }

    fn alloc_pkt_id(&mut self) -> PacketId {
        let m = self.master_mut();
        let id = PacketId(m.next_pkt_id);
        m.next_pkt_id += 1;
        id
    }

    /// The master's order-sensitive recorder. Only the four flow-lifecycle
    /// records written through it are order-sensitive (they push to
    /// per-flow latency / FCT accumulators whose vector order the summary
    /// preserves); plain counters accumulate in the shard's `Counters`,
    /// which add up in any order.
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.master_mut().metrics
    }

    /// Whether trace records are wanted at all (one branch per emission
    /// point when they are not).
    fn tracing(&self) -> bool {
        self.master().tracer.enabled()
    }

    fn trace(&mut self, ev: TraceEvent) {
        self.master_mut().tracer.record(ev);
    }
}

/// The driver's own state: the one calendar every event of the run sits on,
/// and the recorders whose content depends on global event order. It is
/// also the sink of one shard.
pub(crate) struct Master {
    /// Every pending event, under its global `(time, seq)` key.
    pub events: EventQueue<Event>,
    /// Order-sensitive streams and driver-only counters. The order-free
    /// ledger is not here: each shard owns its `Counters`.
    pub metrics: Metrics,
    pub tracer: Tracer,
    pub next_pkt_id: u64,
    /// Packets that crossed the cut during the handler now running, on
    /// their way to the far shard's arena (several shards only).
    pub cuts: Vec<Cut>,
    /// The telemetry sampler found nothing else pending and stopped
    /// re-arming itself; [`Master::wake_sampler`] starts it again.
    pub sampler_idle: bool,
}

impl Master {
    /// Restarts a sampler that stopped when the calendar drained, on its
    /// grid: at the first period boundary at or after now that it has not
    /// sampled yet. A run that registers work mid-run is then sampled at
    /// the instants of one that registered it up front.
    pub fn wake_sampler(&mut self) {
        if !std::mem::take(&mut self.sampler_idle) {
            return;
        }
        let next = self
            .tracer
            .samples
            .last()
            .map_or(0, |s| s.t_ns + SAMPLE_EVERY_NS);
        let now = self.events.now().as_nanos();
        let at = SimTime::from_nanos(now.next_multiple_of(SAMPLE_EVERY_NS).max(next));
        self.events.schedule_at(at, Event::TelemetrySample);
    }
}

impl Effects for Master {
    const SHARDED: bool = false;

    fn master(&self) -> &Master {
        self
    }

    fn master_mut(&mut self) -> &mut Master {
        self
    }

    fn schedule_cut(&mut self, _to: usize, _at: SimTime, _link: LinkId, _pkt: Packet) {
        unreachable!("one shard has no cut links")
    }
}

/// What the run loop tells about each event it executes. [`NoProbe`] is
/// empty, so the unprofiled loop compiles to the bare pop-and-dispatch.
pub(crate) trait Probe {
    /// About to pop.
    fn begin(&mut self);
    /// Popped; dispatch starts.
    fn popped(&mut self);
    /// The handler charged to `phase` returned; `shards` are all of them.
    fn dispatched(&mut self, phase: Phase, cal: &EventQueue<Event>, shards: &[Shard]);
}

/// The probe of an unprofiled run.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn popped(&mut self) {}
    #[inline(always)]
    fn dispatched(&mut self, _: Phase, _: &EventQueue<Event>, _: &[Shard]) {}
}

/// Wall-clock attribution per event class, plus deterministic occupancy
/// samples every 1024 executed events (keyed off the calendar's event
/// counter, so two same-seed profiled runs — at any shard count — sample
/// at identical points and read identical values).
pub(crate) struct PhaseProbe<'a> {
    pub prof: &'a mut Profiler,
    t0: Instant,
    t1: Instant,
}

impl<'a> PhaseProbe<'a> {
    pub fn new(prof: &'a mut Profiler) -> Self {
        let now = Instant::now();
        PhaseProbe {
            prof,
            t0: now,
            t1: now,
        }
    }
}

impl Probe for PhaseProbe<'_> {
    fn begin(&mut self) {
        self.t0 = Instant::now();
    }

    fn popped(&mut self) {
        self.t1 = Instant::now();
        self.prof
            .phase_add(Phase::Pop, (self.t1 - self.t0).as_nanos() as u64);
    }

    fn dispatched(&mut self, phase: Phase, cal: &EventQueue<Event>, shards: &[Shard]) {
        self.prof
            .phase_add(phase, self.t1.elapsed().as_nanos() as u64);
        if cal.events_executed() & 1023 == 0 {
            let (near, far, overflow) = cal.occupancy_breakdown();
            self.prof
                .record(HistKind::CalendarLen, (near + far + overflow) as u64);
            self.prof
                .record(HistKind::CalendarOverflow, overflow as u64);
            let live: usize = shards.iter().map(|s| s.arena.live()).sum();
            self.prof.record(HistKind::ArenaLive, live as u64);
        }
    }
}
