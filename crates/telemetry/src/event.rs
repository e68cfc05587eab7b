//! Trace events, the ring-buffered tracer, and time-series samples.
//!
//! Everything here is keyed by **virtual time only** (`t_ns`). Wall-clock
//! never enters a trace or a sample, so two same-seed runs of the same
//! experiment render byte-identical JSONL.

use crate::json::JsonObj;

wire_names! {
    /// What happened. One discriminant per packet-lifecycle or cache-mutation
    /// point; the per-kind payload rides in [`TraceEvent`]'s optional fields.
    EventKind {
        /// A tenant data packet entered the network at its source host.
        PacketSent => "send",
        /// A packet arrived at a switch.
        SwitchIngress => "switch_ingress",
        /// A caching switch looked the packet's destination up (`hit` says
        /// whether its cache resolved it).
        CacheLookup => "cache_lookup",
        /// A cache mutated (`op` says how).
        CacheOp => "cache_op",
        /// An unresolved packet reached a translation gateway (the detour).
        GatewayIngress => "gateway_ingress",
        /// The gateway finished translating and re-emitted the packet.
        GatewayDone => "gateway_done",
        /// A packet arrived at a host that no longer hosts the destination VM.
        Misdelivery => "misdelivery",
        /// A data packet reached its (correct) destination VM.
        Delivery => "delivery",
        /// A data packet was dropped (`cause` says why).
        Drop => "drop",
        /// A churn tenant arrived (`vip` = tenant id, `hops` = VMs claimed).
        ChurnArrival => "churn_arrival",
        /// A churn tenant departed (`vip` = tenant id, `hops` = VMs released).
        ChurnDeparture => "churn_departure",
        /// A rolling migration wave started (`hops` = migrations in the wave).
        MigrationWave => "migration_wave",
        /// A cache hit served a mapping that disagrees with the ground-truth
        /// database (`vip`/`pip` = the stale entry, `latency_ns` = entry age
        /// since the migration that invalidated it).
        StaleHit => "stale_hit",
    }
}

wire_names! {
    /// Switch layer carried on switch-side events.
    Layer {
        /// Top-of-rack switch (gateway ToRs included).
        Tor => "tor",
        /// Pod switch (gateway spines included).
        Spine => "spine",
        /// Core switch.
        Core => "core",
    }
}

wire_names! {
    /// How a cache mutated ([`EventKind::CacheOp`]).
    Op {
        /// A mapping was inserted into an invalid line.
        Insert => "insert",
        /// A line's mapping was overwritten in place.
        Update => "update",
        /// A valid mapping was evicted to make room.
        Evict => "evict",
        /// A mapping was invalidated.
        Invalidate => "invalidate",
        /// A spillover option riding on a packet was accepted.
        Spill => "spill",
        /// A promotion option was accepted into a core switch.
        Promote => "promote",
        /// A control plane installed the mapping directly (Controller).
        Install => "install",
    }
}

wire_names! {
    /// Why a data packet was dropped ([`EventKind::Drop`]).
    Cause {
        /// Drop-tail queue overflow.
        Queue => "queue",
        /// No usable route to the destination.
        Unroutable => "unroutable",
        /// The packet traversed a node during its blackout window.
        Blackout => "blackout",
        /// Stochastic loss injected by a fault.
        Loss => "loss",
        /// Shed by an overloaded gateway whose bounded ingress queue was full.
        GatewayShed => "gateway-shed",
    }
}

/// One structured trace record. Flat on purpose: a fixed field order
/// renders to a byte-stable JSONL line and parses back with the minimal
/// flat-object parser.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time, nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Flow id (absent for cache ops driven by protocol packets with no
    /// tenant flow).
    pub flow: Option<u64>,
    /// Packet id.
    pub pkt: Option<u64>,
    /// Node id where it happened (switch, gateway, or host).
    pub node: Option<u32>,
    /// Switch layer, switch-side events only.
    pub layer: Option<Layer>,
    /// Cache-lookup outcome.
    pub hit: Option<bool>,
    /// Whether the packet was outer-resolved (send events).
    pub resolved: Option<bool>,
    /// Virtual address involved in a cache op.
    pub vip: Option<u32>,
    /// Physical address involved in a cache op / gateway translation.
    pub pip: Option<u32>,
    /// How the cache mutated (cache-op events).
    pub op: Option<Op>,
    /// Why the packet was dropped (drop events).
    pub cause: Option<Cause>,
    /// Switch hops traversed (delivery events).
    pub hops: Option<u16>,
    /// End-to-end latency, nanoseconds (delivery events).
    pub latency_ns: Option<u64>,
}

impl TraceEvent {
    /// A blank event of `kind` at `t_ns`.
    pub fn new(t_ns: u64, kind: EventKind) -> Self {
        TraceEvent {
            t_ns,
            kind,
            flow: None,
            pkt: None,
            node: None,
            layer: None,
            hit: None,
            resolved: None,
            vip: None,
            pip: None,
            op: None,
            cause: None,
            hops: None,
            latency_ns: None,
        }
    }

    /// Attaches flow/packet identity.
    pub fn packet(mut self, flow: u64, pkt: u64) -> Self {
        self.flow = Some(flow);
        self.pkt = Some(pkt);
        self
    }

    /// Attaches the node id.
    pub fn at_node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("t_ns", self.t_ns).str("kind", self.kind.as_str());
        if let Some(v) = self.flow {
            o.u64("flow", v);
        }
        if let Some(v) = self.pkt {
            o.u64("pkt", v);
        }
        if let Some(v) = self.node {
            o.u64("node", v as u64);
        }
        if let Some(v) = self.layer {
            o.str("layer", v.as_str());
        }
        if let Some(v) = self.hit {
            o.bool("hit", v);
        }
        if let Some(v) = self.resolved {
            o.bool("resolved", v);
        }
        if let Some(v) = self.vip {
            o.u64("vip", v as u64);
        }
        if let Some(v) = self.pip {
            o.u64("pip", v as u64);
        }
        if let Some(v) = self.op {
            o.str("op", v.as_str());
        }
        if let Some(v) = self.cause {
            o.str("cause", v.as_str());
        }
        if let Some(v) = self.hops {
            o.u64("hops", v as u64);
        }
        if let Some(v) = self.latency_ns {
            o.u64("latency_ns", v);
        }
        o.finish()
    }
}

/// One periodic snapshot of simulator state (virtual-time sampler).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Virtual time of the snapshot, nanoseconds.
    pub t_ns: u64,
    /// Events executed by the calendar so far.
    pub events_executed: u64,
    /// Pending events in the calendar right now.
    pub pending_events: u64,
    /// Sum of egress-queue depths over all links, packets.
    pub queue_pkts_total: u64,
    /// Deepest single egress queue, packets.
    pub queue_pkts_max: u64,
    /// Valid cache entries across ToR switches.
    pub occ_tor: u64,
    /// Valid cache entries across spine switches.
    pub occ_spine: u64,
    /// Valid cache entries across core switches.
    pub occ_core: u64,
    /// Hit rate of the metrics window containing this instant (`None`
    /// when the window saw no traffic).
    pub hit_rate_window: Option<f64>,
    /// Cumulative hit rate since t=0.
    pub hit_rate_cum: f64,
    /// Cumulative packets processed by gateways.
    pub gateway_pkts_cum: u64,
}

impl Sample {
    /// Renders the sample as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("t_ns", self.t_ns)
            .u64("events_executed", self.events_executed)
            .u64("pending_events", self.pending_events)
            .u64("queue_pkts_total", self.queue_pkts_total)
            .u64("queue_pkts_max", self.queue_pkts_max)
            .u64("occ_tor", self.occ_tor)
            .u64("occ_spine", self.occ_spine)
            .u64("occ_core", self.occ_core);
        match self.hit_rate_window {
            Some(h) => o.f64("hit_rate_window", h),
            None => o.str("hit_rate_window", "n/a"),
        };
        o.f64("hit_rate_cum", self.hit_rate_cum)
            .u64("gateway_pkts_cum", self.gateway_pkts_cum);
        o.finish()
    }
}

/// Ring-buffer capacity of an enabled [`Tracer`]: 1 Mi events, after which
/// the oldest are overwritten and counted in [`Tracer::dropped`]. Not a §5
/// figure but this reproduction's choice (a quick `table4` run records
/// some 0.6-0.9 M events per scheme and fits whole).
const EVENT_CAPACITY: usize = 1 << 20;

/// Period of the virtual-time sampler (100 µs): an enabled run takes a
/// [`Sample`] at every multiple of it. Fine enough to resolve §5.2's 1 ms
/// migration incast, coarse enough that sampling stays a small share of a
/// traced run's events.
pub const SAMPLE_EVERY_NS: u64 = 100_000;

/// The event sink: a boolean gate plus a bounded ring buffer.
///
/// Callers guard emission with [`Tracer::enabled`] so the disabled path
/// never constructs a [`TraceEvent`]. When the ring fills, the oldest
/// events are overwritten; [`Tracer::dropped`] reports how many.
#[derive(Debug)]
pub struct Tracer {
    /// Master gate. When false the tracer records nothing, the sampler
    /// schedules no events, and agents skip cache-op bookkeeping — the
    /// entire layer costs one predictable branch per emission point.
    enabled: bool,
    /// Ring capacity: [`EVENT_CAPACITY`] outside this module's tests.
    capacity: usize,
    /// Ring storage; chronological order is `buf[start..] ++ buf[..start]`.
    buf: Vec<TraceEvent>,
    start: usize,
    total: u64,
    /// Collected time-series samples, in virtual-time order.
    pub samples: Vec<Sample>,
}

impl Tracer {
    /// A tracer that records events and samples exactly when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            capacity: EVENT_CAPACITY,
            buf: Vec::new(),
            start: 0,
            total: 0,
            samples: Vec::new(),
        }
    }

    /// A disabled tracer.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// True if events should be recorded. `#[inline]` so the guard at each
    /// emission point compiles to one load+branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (call only when [`Self::enabled`]).
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.buf.len();
        }
    }

    /// Bytes of the event ring and the samples; 0 with tracing off.
    pub fn resident_bytes(&self) -> usize {
        self.buf.capacity() * size_of::<TraceEvent>()
            + self.samples.capacity() * size_of::<Sample>()
    }

    /// Total events offered to the tracer.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.start..]
            .iter()
            .chain(self.buf[..self.start].iter())
    }

    /// Renders retained events as JSONL (one event per line, trailing
    /// newline after each).
    pub fn render_events_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders collected samples as JSONL.
    pub fn render_samples_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes `<label>.events.jsonl` and `<label>.samples.jsonl` under
    /// `dir` (created if missing); returns the two paths.
    pub fn write_to_dir(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let ev_path = dir.join(format!("{label}.events.jsonl"));
        let sm_path = dir.join(format!("{label}.samples.jsonl"));
        std::fs::write(&ev_path, self.render_events_jsonl())?;
        std::fs::write(&sm_path, self.render_samples_jsonl())?;
        Ok((ev_path, sm_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::new(t, EventKind::Delivery).packet(1, t)
    }

    /// Neither figure is §5's; both are what every traced run was
    /// recorded with.
    #[test]
    fn ring_and_sampler_keep_their_sizes() {
        assert_eq!(EVENT_CAPACITY, 1 << 20);
        assert_eq!(Tracer::new(true).capacity, EVENT_CAPACITY);
        assert_eq!(SAMPLE_EVERY_NS, 100_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.record(ev(1));
        assert_eq!(t.total_recorded(), 0);
        assert_eq!(t.events().count(), 0);
        assert!(t.render_events_jsonl().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Tracer {
            capacity: 3,
            ..Tracer::new(true)
        };
        for i in 0..5 {
            t.record(ev(i));
        }
        assert_eq!(t.total_recorded(), 5);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.events().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn event_json_has_fixed_field_order() {
        let mut e = TraceEvent::new(5, EventKind::CacheLookup)
            .packet(7, 9)
            .at_node(3);
        e.layer = Some(Layer::Tor);
        e.hit = Some(true);
        assert_eq!(
            e.to_json(),
            r#"{"t_ns":5,"kind":"cache_lookup","flow":7,"pkt":9,"node":3,"layer":"tor","hit":true}"#
        );
    }

    #[test]
    fn sample_json_renders_missing_window_as_na() {
        let s = Sample {
            t_ns: 100,
            events_executed: 10,
            pending_events: 2,
            queue_pkts_total: 0,
            queue_pkts_max: 0,
            occ_tor: 1,
            occ_spine: 2,
            occ_core: 3,
            hit_rate_window: None,
            hit_rate_cum: 0.25,
            gateway_pkts_cum: 4,
        };
        let line = s.to_json();
        assert!(line.contains(r#""hit_rate_window":"n/a""#), "{line}");
        assert!(line.contains(r#""hit_rate_cum":0.25"#), "{line}");
    }
}
