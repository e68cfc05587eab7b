//! The driver's state, where everything a handler records goes.
//!
//! Handlers mutate the model state of the shard they run on directly.
//! Everything else goes to the driver's one [`Master`], on the spot: what
//! must happen in *global* `(time, seq)` order — scheduling, packet-id
//! allocation, the four flow-lifecycle metric records and trace records —
//! the order-free ledger and traffic matrix, and the packet bodies
//! themselves: its calendar holds every pending event and its arena every
//! in-flight packet. A handler talks to that one concrete sink and never
//! learns how many shards there are: a packet whose link ends on another
//! shard is an arrival on the calendar like any other.

use std::time::Instant;

use sv2p_metrics::{Counters, Metrics};
use sv2p_packet::PacketId;
use sv2p_simcore::{EventQueue, FxHashMap, SimTime};
use sv2p_telemetry::profile::{HistKind, Phase, Profiler};
use sv2p_telemetry::{EventKind, TraceEvent, Tracer, SAMPLE_EVERY_NS};
use sv2p_topology::{LinkId, NodeId};

use crate::arena::{PacketArena, PacketRef};

/// Simulator events. Packet-carrying events hold an arena handle and
/// flow / plan events a `u32` index, so an event is twelve bytes — a tag and
/// two words — no matter how fat `TunnelOptions` get, and the calendar's
/// near entry around it (`Entry { seq, ns, payload }`) is 24: a seq, the
/// nanosecond in the ring and the event, with no time, since the ring
/// position and the clock give it.
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
const _: () = assert!(EventQueue::<Event>::ENTRY_BYTES == 24);
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

/// The driver's own state: the one calendar every event of the run sits on,
/// the one arena every in-flight packet sits in, and the run's one set of
/// recorders. Every handler, on whatever shard it runs, writes here, on the
/// spot.
pub(crate) struct Master {
    /// Every pending event, under its global `(time, seq)` key.
    pub events: EventQueue<Event>,
    /// Every in-flight packet body; events and gateway queues hold handles.
    pub arena: PacketArena,
    /// The order-free ledger: sums, maxima and multisets of what happened.
    pub counters: Counters,
    /// Data packets sent per `(src_vm, dst_vm)`, while
    /// `SimConfig::record_traffic_matrix` is set.
    pub traffic_matrix: FxHashMap<(u32, u32), u64>,
    /// Order-sensitive streams and driver-only counters: only the four
    /// flow-lifecycle records are order-sensitive (they push to per-flow
    /// latency / FCT accumulators whose vector order the summary
    /// preserves).
    pub metrics: Metrics,
    pub tracer: Tracer,
    pub next_pkt_id: u64,
    /// The telemetry sampler found nothing else pending and stopped
    /// re-arming itself; [`Master::wake_sampler`] starts it again.
    pub sampler_idle: bool,
}

impl Master {
    /// Current virtual time: the instant of the event being executed.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The next packet id: ids are handed out in global event order.
    pub fn alloc_pkt_id(&mut self) -> PacketId {
        let id = PacketId(self.next_pkt_id);
        self.next_pkt_id += 1;
        id
    }

    /// The lifecycle record `kind` of packet `h` at `node`, its flow and
    /// packet id read off the arena; `None` when tracing is off. Protocol
    /// packets carry the default `FlowId(0)` and would pollute flow 0's
    /// trace, so only data packets get one.
    pub fn packet_event(&self, kind: EventKind, h: PacketRef, node: NodeId) -> Option<TraceEvent> {
        self.tracer.enabled().then(|| {
            let p = self.arena.get(h);
            TraceEvent::new(self.now().as_nanos(), kind)
                .packet(p.flow.0, p.id.0)
                .at_node(node.0)
        })
    }

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

/// What the run loop tells about each event it executes. [`NoProbe`] is
/// empty, so the unprofiled loop compiles to the bare pop-and-dispatch.
pub(crate) trait Probe {
    /// About to pop.
    fn begin(&mut self);
    /// Popped; dispatch starts.
    fn popped(&mut self);
    /// The handler charged to `phase` returned.
    fn dispatched(&mut self, phase: Phase, master: &Master);
}

/// The probe of an unprofiled run.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn popped(&mut self) {}
    #[inline(always)]
    fn dispatched(&mut self, _: Phase, _: &Master) {}
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

    fn dispatched(&mut self, phase: Phase, master: &Master) {
        self.prof
            .phase_add(phase, self.t1.elapsed().as_nanos() as u64);
        if master.events.events_executed() & 1023 == 0 {
            let (near, far, overflow) = master.events.occupancy_breakdown();
            self.prof
                .record(HistKind::CalendarLen, (near + far + overflow) as u64);
            self.prof
                .record(HistKind::CalendarOverflow, overflow as u64);
            let live = master.arena.live() as u64;
            self.prof.record(HistKind::ArenaLive, live);
        }
    }
}
