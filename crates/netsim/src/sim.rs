//! One shard's state and the event handlers that run on it.
//!
//! A [`Shard`] owns only model state, what evolves as packets move through
//! its part of the fabric: link states, switch and host agents with their
//! RNG streams, the transport machines of its flows and gateway queues.
//! Handlers read the shared [`World`] and the [`Control`] state by
//! reference, mutate only the shard they run on, and write everything they
//! record — the ledger, the traffic matrix, metrics and trace — every
//! scheduled event and every packet body to the driver's one [`Master`],
//! so a handler is the same code, and sees the same calendar, arena and
//! recorders, at every shard count.
//!
//! Every packet handler has one shape. A packet enters a node at one
//! arrival gate ([`Shard::on_link_arrival`]), which reads the node once,
//! drops the packet if the node is blacked out and, at a switch, counts
//! the hop. The handler then states only what is particular to its node,
//! and ends in the one forwarding tail, [`Shard::send_on`].

use std::collections::VecDeque;
use std::sync::Arc;

use sv2p_metrics::DropCause;
use sv2p_packet::packet::Protocol;
use sv2p_packet::{
    FlowId, InnerHeader, MisdeliveryTag, OuterHeader, Packet, PacketKind, Pip, SwitchTag, TcpFlags,
};
use sv2p_simcore::{FxHashMap, SimDuration, SimRng, SimTime};
use sv2p_telemetry::{Cause, EventKind, Layer, Op, TraceEvent};
use sv2p_topology::{LinkId, NodeId, NodeKind, RoleMap, SwitchRole};
use sv2p_transport::{SenderOps, TcpConfig, TcpSender};
use sv2p_vnet::{
    CacheOp, HostAgent, HostResolution, MisdeliveryPolicy, PacketAction, SwitchAgent, SwitchCtx,
    GATEWAY_PROCESSING,
};

use crate::arena::PacketRef;
use crate::effects::{Event, Master, Probe};
use crate::faults::FaultEvent;
use crate::flows::{src_port, FlowKind, FlowXport, LazyRto, RtoPop, Sender};
use crate::link::{EnqueueOutcome, Links};
use crate::world::{Control, World};

/// Drop-tail buffer per egress port: "we set the switch buffer size to
/// 32 MB" (§5).
pub(crate) const PORT_BUFFER_BYTES: u32 = 32 * 1024 * 1024;

/// Old-host processing per misdelivered packet before it is forwarded on:
/// 10 µs (§5.2).
pub(crate) const MISDELIVERY_PENALTY: SimDuration = SimDuration::from_micros(10);

// The simulator's enums onto the trace vocabulary of `sv2p_telemetry::event`.
// These three exhaustive matches are the only mappings: a variant added to
// `SwitchRole`, `DropCause` or `CacheOp` fails to compile until it has a
// wire name.

/// Trace layer of the switch at `node`.
pub(crate) fn wire_layer(roles: &RoleMap, node: NodeId) -> Layer {
    match roles.role(node) {
        Some(SwitchRole::GatewayTor | SwitchRole::Tor) => Layer::Tor,
        Some(SwitchRole::GatewaySpine | SwitchRole::Spine) => Layer::Spine,
        Some(SwitchRole::Core) | None => Layer::Core,
    }
}

fn wire_cause(cause: DropCause) -> Cause {
    match cause {
        DropCause::Queue => Cause::Queue,
        DropCause::Unroutable => Cause::Unroutable,
        DropCause::Blackout => Cause::Blackout,
        DropCause::Loss => Cause::Loss,
        DropCause::GatewayShed => Cause::GatewayShed,
    }
}

fn wire_op(op: CacheOp) -> Op {
    match op {
        CacheOp::Insert { .. } => Op::Insert,
        CacheOp::Update { .. } => Op::Update,
        CacheOp::Evict { .. } => Op::Evict,
        CacheOp::Invalidate { .. } => Op::Invalidate,
        CacheOp::Spill { .. } => Op::Spill,
        CacheOp::Promote { .. } => Op::Promote,
        CacheOp::Install { .. } => Op::Install,
    }
}

/// The trace record of one cache mutation at the switch `node`.
pub(crate) fn cache_op_event(t_ns: u64, node: NodeId, layer: Layer, op: CacheOp) -> TraceEvent {
    let mut ev = TraceEvent::new(t_ns, EventKind::CacheOp).at_node(node.0);
    ev.op = Some(wire_op(op));
    ev.vip = Some(op.vip().0);
    ev.pip = op.pip().map(|p| p.0);
    ev.layer = Some(layer);
    ev
}

/// What one telemetry sample reads off the shards; each adds its part.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Snapshot {
    pub q_total: u64,
    pub q_max: u64,
    /// Valid cache entries, by `sv2p_topology::Layer`.
    pub occ: [u64; 3],
}

/// The state one shard owns. Switch agents and their RNG streams are
/// indexed by switch tag and transport state by flow id; switch agents
/// exist only for the switches the shard owns, and only where their role
/// weighs above 0. One host agent sends for every server the shard owns.
/// `links` covers every link id, but a shard only ever offers packets to
/// the links whose sending end it owns, so every other one stays idle.
pub(crate) struct Shard {
    pub id: usize,
    pub world: Arc<World>,
    links: Links,
    pub agents: Vec<Option<Box<dyn SwitchAgent>>>,
    agent_rngs: Vec<SimRng>,
    host_agent: Box<dyn HostAgent>,
    /// Per-link RNG streams for stochastic-loss draws, forked off the seed
    /// so fault draws never perturb agent randomness, each at its link's
    /// first lossy draw (forking does not advance the seed's stream, so a
    /// late fork is the stream an early one would have been). One stream
    /// per link makes the draw sequence a function of that link's enqueue
    /// order alone, whatever the interleaving across shards.
    fault_rngs: FxHashMap<LinkId, SimRng>,
    /// Reusable ECMP candidate buffer (avoids a per-hop allocation).
    route_scratch: Vec<LinkId>,
    pub flows: Vec<FlowXport>,
    /// The gateways in service under the bounded-queue overload model
    /// (`SimConfig::gateway_queue_cap > 0`; legacy unbounded mode otherwise),
    /// each with the packets waiting behind the one in service. An idle
    /// gateway has no entry.
    pub gw_busy: FxHashMap<NodeId, VecDeque<PacketRef>>,
}

impl Shard {
    /// Shard `id` with idle links, `host_agent` sending for its servers and
    /// no switch agents yet (the engine installs one on the shard owning
    /// its switch).
    pub fn new(id: usize, world: Arc<World>, host_agent: Box<dyn HostAgent>) -> Self {
        let base_rng = SimRng::new(world.cfg.seed);
        Shard {
            id,
            links: Links::new(world.topo.link_count()),
            fault_rngs: FxHashMap::default(),
            agents: (0..world.topo.switch_count()).map(|_| None).collect(),
            // Forked by node id, not tag, so a switch's stream does not
            // depend on how the switches are numbered.
            agent_rngs: world
                .topo
                .switches()
                .map(|sw| base_rng.fork(u64::from(sw.id.0)))
                .collect(),
            host_agent,
            route_scratch: Vec::new(),
            flows: Vec::new(),
            gw_busy: FxHashMap::default(),
            world,
        }
    }

    /// The one-shard run loop: pops and dispatches every event due before
    /// `bt`. Returns early with a global event when one comes up — the
    /// driver executes those — and `None` once the bound is reached.
    ///
    /// Before it dispatches an event it looks at the one due next: nearly
    /// every event is a link arrival, whose handler begins with loads that
    /// miss the cache (the packet's arena slot, the link's far end and that
    /// node's kind), so it reads them, discarding the values, to start the
    /// loads while this event runs. That is only reads: the next event may
    /// not even be the one that pops next (this event may schedule an
    /// earlier one), and no result can differ.
    pub fn drain<P: Probe>(
        &mut self,
        ctl: &Control,
        master: &mut Master,
        probe: &mut P,
        bt: SimTime,
    ) -> Option<Event> {
        loop {
            probe.begin();
            let se = master.events.pop_before(bt)?;
            probe.popped();
            if se.payload.is_global() {
                return Some(se.payload);
            }
            if let Some(&Event::LinkArrival { link, pkt }) = master.events.peek_near() {
                master.arena.warm(pkt);
                let topo = &self.world.topo;
                std::hint::black_box(topo.kind(topo.link_to(link)));
            }
            let phase = se.payload.phase();
            self.dispatch(ctl, master, se.payload);
            probe.dispatched(phase, master);
        }
    }

    /// Runs one (non-global) event's handler.
    pub fn dispatch(&mut self, ctl: &Control, fx: &mut Master, ev: Event) {
        match ev {
            Event::FlowStart(idx) => self.on_flow_start(ctl, fx, idx as usize),
            Event::UdpSend { flow, idx } => self.on_udp_send(ctl, fx, flow as usize, idx as usize),
            Event::LinkArrival { link, pkt } => self.on_link_arrival(ctl, fx, link, pkt),
            Event::RtoTimer { flow, gen } => self.on_rto_timer(ctl, fx, flow as usize, gen),
            Event::GatewayDone { node, pkt } => self.on_gateway_done(ctl, fx, node, pkt),
            Event::ReInject { node, pkt } => self.on_re_inject(ctl, fx, node, pkt),
            Event::HostForward { node, pkt } => self.on_host_forward(ctl, fx, node, pkt),
            Event::Migrate(_)
            | Event::FaultStart(_)
            | Event::FaultEnd(_)
            | Event::ChurnMark(_)
            | Event::TelemetrySample => unreachable!("global events run on the driver"),
        }
    }

    // ------------------------------------------------------------------
    // What the driver asks of a shard at a global event
    // ------------------------------------------------------------------

    /// The shard-owned part of a global event the driver just applied to
    /// the control state: a rebooted switch comes back cold.
    pub fn on_global(&mut self, ctl: &Control, ev: &Event) {
        if let Event::FaultEnd(i) = *ev {
            if let FaultEvent::SwitchReboot { node, .. } = ctl.fault_plan[i as usize] {
                if self.world.shard_of(node) == self.id {
                    self.cold_reset_switch(ctl, node);
                }
            }
        }
    }

    /// Cold-starts one switch this shard owns: its agent loses all
    /// volatile state, and if it is a ToR the attached servers' host
    /// agents reset with it (their vswitches restart when the rack's
    /// uplink switch reboots; a rack never straddles shards). Every reboot
    /// path goes through here so per-switch state clears uniformly.
    pub fn cold_reset_switch(&mut self, ctl: &Control, node: NodeId) {
        let tag = self.world.tag_of(self.world.topo.kind(node));
        if let Some(agent) = tag.and_then(|t| self.agents[t.0 as usize].as_mut()) {
            agent.reset();
        }
        let is_tor = ctl
            .roles
            .role(node)
            .is_some_and(|r| r.layer() == sv2p_topology::Layer::Tor);
        if is_tor {
            let topo = &self.world.topo;
            for link in topo.out_links(node) {
                let peer = topo.link_to(link);
                if matches!(topo.kind(peer), NodeKind::Server { .. }) {
                    self.host_agent.reset(peer);
                }
            }
        }
    }

    /// Resident bytes of this shard's `(links, nodes, flows)`: its link
    /// states with the queue slab and loss streams; its agents (the boxes'
    /// inline sizes, a switch agent's cache lines behind them, and the one
    /// host agent's box with the per-host state behind it), the switches'
    /// RNG streams and the busy gateways' queues with their buffers; and
    /// its flows' transport state, with the running senders (timers
    /// included) and receivers behind it.
    pub fn resident_bytes(&self) -> (usize, usize, usize) {
        use std::mem::{size_of, size_of_val as bytes};
        let links = self.links.resident_bytes()
            + self.fault_rngs.capacity() * (size_of::<(LinkId, SimRng)>() + 1);
        let switch_boxes = self
            .agents
            .iter()
            .flatten()
            .map(|a| bytes(&**a) + a.resident_bytes());
        let host = bytes(&*self.host_agent) + self.host_agent.resident_bytes();
        let boxes = switch_boxes.sum::<usize>() + host;
        let nodes = bytes(&*self.agents) + bytes(&*self.agent_rngs);
        let gateways = self.gw_busy.capacity() * (size_of::<(NodeId, VecDeque<PacketRef>)>() + 1)
            + self
                .gw_busy
                .values()
                .map(|q| q.capacity() * size_of::<PacketRef>())
                .sum::<usize>();
        let running = self.flows.iter().map(|f| {
            let tx = f.tcp_tx.as_ref().map_or(0, |_| size_of::<Sender>());
            tx + f.tcp_rx.as_ref().map_or(0, |rx| rx.resident_bytes())
        });
        let flows = bytes(&*self.flows) + running.sum::<usize>();
        (links, nodes + boxes + gateways, flows)
    }

    /// Adds this shard's part to the telemetry sample `s` taken at instant
    /// `now`. Queue depths and occupancy are only non-zero for state this
    /// shard owns.
    pub fn snapshot_into(&self, ctl: &Control, now: SimTime, s: &mut Snapshot) {
        for (i, l) in self.world.topo.links().enumerate() {
            let q = self
                .links
                .queue_len(i, now, &self.world.ser[l.class as usize]) as u64;
            s.q_total += q;
            s.q_max = s.q_max.max(q);
        }
        // Tags number the switches in enumeration order.
        for (sw, agent) in self.world.topo.switches().zip(&self.agents) {
            let occ = agent.as_ref().map_or(0, |a| a.occupancy()) as u64;
            s.occ[ctl.roles.role(sw.id).expect("switch role").layer() as usize] += occ;
        }
    }

    // ------------------------------------------------------------------
    // Packet trace and end of life
    // ------------------------------------------------------------------

    /// Ends a packet's life as a drop: records the metrics counter and a
    /// trace event (data packets only — protocol packets vanish silently)
    /// and frees the arena slot.
    fn drop_packet(&mut self, fx: &mut Master, h: PacketRef, node: NodeId, cause: DropCause) {
        if matches!(fx.arena.get(h).kind, PacketKind::Data) {
            fx.counters.record_drop(cause);
            if let Some(mut ev) = fx.packet_event(EventKind::Drop, h, node) {
                ev.cause = Some(wire_cause(cause));
                fx.tracer.record(ev);
            }
        }
        fx.arena.free(h);
    }

    // ------------------------------------------------------------------
    // Flow driving
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, ctl: &Control, fx: &mut Master, idx: usize) {
        let now = fx.now();
        fx.metrics.flow_started(FlowId(idx as u64), now);
        match &ctl.flows[idx].kind {
            FlowKind::Tcp { bytes } => {
                // Every sender runs the reordering-tolerant profile the
                // paper assumes of modern stacks (§4).
                let mut tcp = TcpSender::new(TcpConfig::reorder_tolerant(), *bytes);
                let ops = tcp.start(now);
                let rto = LazyRto::default();
                self.flows[idx].tcp_tx = Some(Box::new(Sender { tcp, rto }));
                self.apply_sender_ops(ctl, fx, idx, ops);
            }
            FlowKind::Udp { schedule } => {
                let flow = Event::index(idx);
                for (i, &(t, _)) in schedule.sends.iter().enumerate() {
                    let idx = Event::index(i);
                    fx.events
                        .schedule_at(t.max(now), Event::UdpSend { flow, idx });
                }
            }
        }
    }

    fn on_udp_send(&mut self, ctl: &Control, fx: &mut Master, flow: usize, idx: usize) {
        let len = match &ctl.flows[flow].kind {
            FlowKind::Udp { schedule } => schedule.sends[idx].1,
            FlowKind::Tcp { .. } => unreachable!("UdpSend on TCP flow"),
        };
        self.send_flow_packet(ctl, fx, flow, idx as u32, len, idx == 0, false);
    }

    fn on_rto_timer(&mut self, ctl: &Control, fx: &mut Master, flow: usize, gen: u32) {
        // A completed flow's timer died with its sender.
        let Some(tx) = self.flows[flow].tcp_tx.as_deref_mut() else {
            return;
        };
        let ops = match tx.rto.on_pop(gen) {
            RtoPop::Fire => tx.tcp.on_rto(fx.now()),
            RtoPop::Refile { at: (at, seq), gen } => {
                let flow = flow as u32;
                return fx
                    .events
                    .schedule_at_seq(at, seq, Event::RtoTimer { flow, gen });
            }
            RtoPop::Orphan => return,
        };
        self.apply_sender_ops(ctl, fx, flow, ops);
    }

    fn apply_sender_ops(&mut self, ctl: &Control, fx: &mut Master, flow: usize, ops: SenderOps) {
        for seg in ops.segments {
            let first = seg.seq == 0 && !seg.retransmit;
            self.send_flow_packet(ctl, fx, flow, seg.seq as u32, seg.len, first, false);
        }
        let f = &mut self.flows[flow];
        let tx = f
            .tcp_tx
            .as_deref_mut()
            .expect("ops come from a running sender");
        if tx.tcp.is_complete() {
            // The flow is done: its sender and timer go, their statistics
            // folded into the ledger. A late ACK or timer event finds no
            // sender, as a complete one would have ignored it.
            fx.counters.retransmissions += tx.tcp.retransmits;
            (f.tcp_tx, f.completed) = (None, true);
            let now = fx.now();
            fx.metrics.flow_completed(FlowId(flow as u64), now);
        } else if let Some(deadline) = ops.arm_rto {
            // Every arm takes a seq, filed or not: every event keeps its key.
            let seq = fx.events.reserve_seq();
            if let Some(gen) = tx.rto.arm((deadline, seq)) {
                // `add_flows` held every flow index to 32 bits.
                let flow = flow as u32;
                fx.events
                    .schedule_at_seq(deadline, seq, Event::RtoTimer { flow, gen });
            }
        }
    }

    /// Builds and transmits one tenant packet for `flow`. `reverse` sends
    /// a pure ACK of `seq` from the flow's destination back to its source.
    #[allow(clippy::too_many_arguments)]
    fn send_flow_packet(
        &mut self,
        ctl: &Control,
        fx: &mut Master,
        flow: usize,
        seq: u32,
        payload: u32,
        first_of_flow: bool,
        reverse: bool,
    ) {
        let now = fx.now();
        let spec = &ctl.flows[flow];
        let (src_vm, dst_vm) = if reverse {
            (spec.dst_vm, spec.src_vm)
        } else {
            (spec.src_vm, spec.dst_vm)
        };
        let placement = &ctl.placement;
        let src_vip = placement.vip_of(src_vm);
        let dst_vip = placement.vip_of(dst_vm);
        let (src_pip, src_node) = placement.host(src_vm);
        let proto = if spec.is_tcp() {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        let flow_id = FlowId(flow as u64);
        let (src_port, dst_port) = if reverse {
            (80, src_port(flow_id))
        } else {
            (src_port(flow_id), 80)
        };
        // Per-flow, per-direction gateway stickiness.
        let gw_key = flow_id.0 * 2 + reverse as u64;

        let resolution = self.host_agent.resolve(src_node, placement, dst_vip);
        let (dst_pip, resolved) = match resolution {
            HostResolution::Direct(pip) => (pip, true),
            HostResolution::Gateway => (self.world.dir.pick(gw_key), false),
            HostResolution::FirstHopTor => (Pip(0), false),
        };

        let pkt = Packet {
            id: fx.alloc_pkt_id(),
            flow: flow_id,
            outer: OuterHeader {
                src_pip,
                dst_pip,
                resolved,
            },
            inner: InnerHeader {
                src_vip,
                dst_vip,
                src_port,
                dst_port,
                protocol: proto,
                seq,
                ack: if reverse { seq } else { 0 },
                flags: TcpFlags {
                    ack: reverse,
                    ..TcpFlags::default()
                },
            },
            payload,
            sent_ns: now.as_nanos(),
            first_of_flow,
            ..Packet::default()
        };

        fx.counters.record_data_sent(now);
        if self.world.cfg.record_traffic_matrix {
            *fx.traffic_matrix
                .entry((src_vm as u32, dst_vm as u32))
                .or_insert(0) += 1;
        }
        let h = fx.arena.alloc(pkt);
        if let Some(mut ev) = fx.packet_event(EventKind::PacketSent, h, src_node) {
            ev.resolved = Some(resolved);
            ev.vip = Some(dst_vip.0);
            fx.tracer.record(ev);
        }
        self.send_on(ctl, fx, src_node, h);
    }

    // ------------------------------------------------------------------
    // The hop: one tail out of a node, one link, one gate into the next
    // ------------------------------------------------------------------

    /// The one forwarding tail: sends `pkt` on from `node`. A server or
    /// gateway sends it out of its one uplink. A switch routes it by ECMP
    /// over the links that are up toward the node its outer PIP addresses,
    /// and frees it if that is the switch itself (the agent chose not to
    /// consume it). A packet with nowhere to go — its uplink down, no
    /// usable port, or an address that names nothing (e.g. a Bluebird
    /// packet no ToR translated) — is dropped `Unroutable`. Debug builds
    /// first check the packet against its byte-level wire format.
    fn send_on(&mut self, ctl: &Control, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        #[cfg(debug_assertions)]
        certify_wire(fx.arena.get(pkt));
        let topo = &self.world.topo;
        let kind = topo.kind(node);
        let next = if let Some((_, uplink)) = topo.attachment(kind) {
            (ctl.link_down[uplink.0 as usize] == 0).then_some(uplink)
        } else {
            match topo.node_by_pip(fx.arena.get(pkt).outer.dst_pip) {
                Some(dst) if dst == node => {
                    fx.arena.free(pkt);
                    return;
                }
                Some(dst) => {
                    let key = fx.arena.get(pkt).ecmp_key();
                    // With every link up, every candidate is usable.
                    let up = |l: LinkId| ctl.link_down[l.0 as usize] == 0;
                    let usable = (ctl.links_down != 0).then_some(&up as &dyn Fn(LinkId) -> bool);
                    let scratch = &mut self.route_scratch;
                    self.world
                        .routing
                        .next_link(topo, node, dst, key, usable, scratch)
                }
                None => None,
            }
        };
        match next {
            Some(link) => {
                let class = topo.link_class_from(kind, link);
                self.enqueue_on_link(ctl, fx, node, class, link, pkt);
            }
            None => self.drop_packet(fx, pkt, node, DropCause::Unroutable),
        }
    }

    /// Offers `pkt` to `link`'s egress port at `from`, a link of class
    /// `class`. An accepted packet's last bit leaves at an instant the link
    /// already knows, so its arrival — the one event of the hop — is
    /// scheduled here.
    fn enqueue_on_link(
        &mut self,
        ctl: &Control,
        fx: &mut Master,
        from: NodeId,
        class: u32,
        link: LinkId,
        pkt: PacketRef,
    ) {
        let wire = fx.arena.get(pkt).wire_size();
        let now = fx.now();
        let world = &*self.world;
        let ser = &world.ser[class as usize];
        // Draw from the dedicated fault stream only while loss is active, so
        // a healthy run consumes no fault randomness at all.
        let loss_rate = if ctl.loss.is_empty() {
            0.0
        } else {
            ctl.loss.get(&link).map_or(0.0, |&(rate, _)| rate)
        };
        let outcome = if loss_rate > 0.0 {
            // Labels far outside the node-id space keep the fault streams
            // disjoint from every per-agent fork.
            let label = (1u64 << 32) + u64::from(link.0);
            let seed = world.cfg.seed;
            let rng = self
                .fault_rngs
                .entry(link)
                .or_insert_with(|| SimRng::new(seed).fork(label));
            let draw = rng.uniform();
            self.links.enqueue_with_loss(
                link.0 as usize,
                now,
                wire,
                ser,
                PORT_BUFFER_BYTES,
                loss_rate,
                draw,
            )
        } else {
            self.links
                .enqueue(link.0 as usize, now, wire, ser, PORT_BUFFER_BYTES)
        };
        match outcome {
            EnqueueOutcome::Departs(departs) => {
                let delay = world.topo.classes()[class as usize].delay_ns;
                let arrives = departs + SimDuration::from_nanos(delay);
                fx.events
                    .schedule_at(arrives, Event::LinkArrival { link, pkt });
            }
            EnqueueOutcome::Dropped => self.drop_packet(fx, pkt, from, DropCause::Queue),
            EnqueueOutcome::Lost => self.drop_packet(fx, pkt, from, DropCause::Loss),
        }
    }

    /// The arrival gate: reads the node `link` ends at once and hands the
    /// packet to its handler. A blacked-out switch or gateway drops it
    /// (senders ride their RTO). A switch counts the hop here — the hop
    /// count, its bytes and the `SwitchIngress` record — so a packet an
    /// agent held back and re-injects is not counted twice.
    fn on_link_arrival(&mut self, ctl: &Control, fx: &mut Master, link: LinkId, pkt: PacketRef) {
        let topo = &self.world.topo;
        let node = topo.link_to(link);
        let kind = topo.kind(node);
        match kind {
            NodeKind::Server { .. } => self.handle_at_server(ctl, fx, node, pkt),
            _ if ctl.blackout[node.0 as usize] != 0 => {
                self.drop_packet(fx, pkt, node, DropCause::Blackout)
            }
            NodeKind::Gateway { .. } => self.handle_at_gateway(fx, node, pkt),
            _ => {
                let p = fx.arena.get_mut(pkt);
                p.switch_hops = p.switch_hops.saturating_add(1);
                let (wire, is_data) = (p.wire_size(), matches!(p.kind, PacketKind::Data));
                let tag = self.world.tag_of(kind).expect("switch tag");
                fx.counters.record_switch_bytes(tag, wire);
                let ev = fx.packet_event(EventKind::SwitchIngress, pkt, node);
                if let Some(ev) = ev.filter(|_| is_data) {
                    fx.tracer.record(ev);
                }
                self.handle_at_switch(ctl, fx, node, kind, pkt, Some(link));
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch logic
    // ------------------------------------------------------------------

    /// A packet an agent held back (`PacketAction::Delay`) re-enters its
    /// switch past the arrival gate: the detour is no hop.
    fn on_re_inject(&mut self, ctl: &Control, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        if ctl.blackout[node.0 as usize] != 0 {
            // The switch began rebooting while it held the packet.
            self.drop_packet(fx, pkt, node, DropCause::Blackout);
            return;
        }
        let kind = self.world.topo.kind(node);
        self.handle_at_switch(ctl, fx, node, kind, pkt, None);
    }

    /// The switch's part of a hop: the agent call, the accounting of what
    /// the agent reports, then the tail for the packet and for each packet
    /// the agent emits. A switch with no agent (its role weighs 0) goes
    /// straight to the tail: the arrival gate has already counted the hop.
    /// `kind` is the switch's as the arrival gate read it; `came_over` the
    /// link the packet arrived on (`None` for a re-injected one), whose
    /// sender the agent is told of if it is a host.
    fn handle_at_switch(
        &mut self,
        ctl: &Control,
        fx: &mut Master,
        node: NodeId,
        kind: NodeKind,
        pkt: PacketRef,
        came_over: Option<LinkId>,
    ) {
        let tag = self.world.tag_of(kind).expect("switch tag");
        let Some(agent) = self.agents[tag.0 as usize].as_mut() else {
            self.send_on(ctl, fx, node, pkt);
            return;
        };
        let now = fx.now();
        let role = ctl.roles.role(node).expect("switch role");
        let trace = fx.tracer.enabled();
        let (is_data, was_unresolved, first_of_flow, learning_dst) = {
            let p = fx.arena.get(pkt);
            let is_data = matches!(p.kind, PacketKind::Data);
            let learning = matches!(p.kind, PacketKind::Learning(_));
            (
                is_data,
                is_data && !p.outer.resolved,
                p.first_of_flow,
                learning.then_some(p.outer.dst_pip),
            )
        };
        let world = &*self.world;
        let topo = &world.topo;
        // The front-panel port's host, if the packet came up from one.
        let ingress = came_over
            .map(|l| topo.kind(topo.link_from(l)))
            .filter(|from| from.is_host())
            .map(|from| from.pip());
        // Only a learning packet's consumer reads this, so a data packet's
        // hop decodes its destination once, in `send_on`.
        let dst_attached = learning_dst
            .and_then(|pip| topo.node_by_pip(pip))
            .is_some_and(|dst| {
                topo.attachment(topo.kind(dst))
                    .is_some_and(|(tor, _)| tor == node)
            });

        let output = {
            let pod_of = move |pip: Pip| -> Option<u16> {
                topo.node_by_pip(pip).and_then(|n| topo.kind(n).pod())
            };
            let pip_of_tag = move |t: SwitchTag| {
                topo.switch_kind(u32::from(t.0))
                    .expect("a switch tag")
                    .pip()
            };
            let mut ctx = SwitchCtx {
                now,
                tag,
                switch_pip: kind.pip(),
                role,
                my_pod: kind.pod(),
                ingress_host: ingress,
                dst_attached,
                placement: &ctl.placement,
                rng: &mut self.agent_rngs[tag.0 as usize],
                pod_of: &pod_of,
                pip_of_tag: &pip_of_tag,
                trace_cache_ops: trace,
            };
            agent.on_packet(&mut ctx, fx.arena.get_mut(pkt))
        };

        if output.cache_hit {
            fx.counters.record_cache_hit(role.layer(), first_of_flow);
            if is_data {
                // A hit that rewrote the packet to a PIP the control plane
                // has since migrated away from is a *stale* hit: this packet
                // is headed for a misdelivery. The gap between the migration
                // and the last stale hit is the strategy's recovery time.
                let (vip, cur_dst) = {
                    let p = fx.arena.get(pkt);
                    (p.inner.dst_vip, p.outer.dst_pip)
                };
                // The migration ledger first: it ages the hit, and it is
                // exact, not a filter. `Migrate` is the only write the
                // placement sees after set-up and it records the VIP here in
                // the same global event, while a cache line is always a
                // mapping the placement held (learnt from a gateway's
                // translation or a packet carrying one, or installed from
                // the placement) — so a VIP absent from the ledger cannot be
                // cached stale.
                let migration = ctl.last_migration.get(&vip).copied();
                if migration.is_some() && ctl.placement.lookup(vip) != Some(cur_dst) {
                    let age = fx.counters.record_stale_hit(migration, now);
                    if let Some(mut ev) = fx.packet_event(EventKind::StaleHit, pkt, node) {
                        ev.vip = Some(vip.0);
                        ev.pip = Some(cur_dst.0);
                        ev.layer = Some(wire_layer(&ctl.roles, node));
                        ev.latency_ns = age;
                        fx.tracer.record(ev);
                    }
                }
            }
        }
        fx.counters.spillover_inserts += u64::from(output.spill_inserted);
        fx.counters.promotion_inserts += u64::from(output.promotion_inserted);
        if trace {
            let layer = wire_layer(&ctl.roles, node);
            // A data packet that arrived unresolved at a switch holding cache
            // lines probed that cache; the agent reported hit/miss.
            if was_unresolved && self.world.caching[tag.0 as usize] {
                if let Some(mut ev) = fx.packet_event(EventKind::CacheLookup, pkt, node) {
                    ev.hit = Some(output.cache_hit);
                    ev.layer = Some(layer);
                    fx.tracer.record(ev);
                }
            }
            let p = fx.arena.get(pkt);
            for &op in &output.cache_ops {
                let ev = cache_op_event(now.as_nanos(), node, layer, op);
                fx.tracer.record(if is_data {
                    ev.packet(p.flow.0, p.id.0)
                } else {
                    ev
                });
            }
        }
        for mut extra in output.emit {
            extra.id = fx.alloc_pkt_id();
            extra.sent_ns = now.as_nanos();
            match extra.kind {
                PacketKind::Learning(_) => fx.counters.learning_packets += 1,
                PacketKind::Invalidation(_) => fx.counters.invalidation_packets += 1,
                PacketKind::Data => {}
            }
            let eh = fx.arena.alloc(extra);
            self.send_on(ctl, fx, node, eh);
        }
        match output.action {
            PacketAction::Forward => self.send_on(ctl, fx, node, pkt),
            PacketAction::Delay(d) => {
                fx.events.schedule_in(d, Event::ReInject { node, pkt });
            }
            PacketAction::Drop => self.drop_packet(fx, pkt, node, DropCause::Queue),
            PacketAction::Consume => fx.arena.free(pkt),
        }
    }

    // ------------------------------------------------------------------
    // Gateway logic
    // ------------------------------------------------------------------

    fn handle_at_gateway(&mut self, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        let now = fx.now();
        let p = fx.arena.get(pkt);
        if !matches!(p.kind, PacketKind::Data) || p.outer.resolved {
            // Resolved tenant traffic or protocol packets have no business
            // at a gateway.
            self.drop_packet(fx, pkt, node, DropCause::Unroutable);
            return;
        }
        fx.counters.record_gateway_packet(now);
        if let Some(ev) = fx.packet_event(EventKind::GatewayIngress, pkt, node) {
            fx.tracer.record(ev);
        }
        let cap = self.world.cfg.gateway_queue_cap as usize;
        if cap == 0 {
            // Legacy unbounded model: every packet is processed
            // concurrently after the fixed service delay.
            fx.events
                .schedule_in(GATEWAY_PROCESSING, Event::GatewayDone { node, pkt });
        } else if let Some(waiting) = self.gw_busy.get_mut(&node) {
            if waiting.len() < cap {
                waiting.push_back(pkt);
            } else {
                // Overloaded: the bounded queue sheds the arrival.
                self.drop_packet(fx, pkt, node, DropCause::GatewayShed);
            }
        } else {
            self.gw_busy.insert(node, VecDeque::new());
            fx.events
                .schedule_in(GATEWAY_PROCESSING, Event::GatewayDone { node, pkt });
        }
    }

    /// Bounded-queue service discipline: each completed translation pulls
    /// the next queued packet into processing (or clears the busy flag).
    /// No-op in the legacy unbounded model.
    fn gateway_pop_next(&mut self, fx: &mut Master, node: NodeId) {
        if self.world.cfg.gateway_queue_cap == 0 {
            return;
        }
        let waiting = self.gw_busy.get_mut(&node).expect("a gateway in service");
        if let Some(next) = waiting.pop_front() {
            fx.events
                .schedule_in(GATEWAY_PROCESSING, Event::GatewayDone { node, pkt: next });
        } else {
            self.gw_busy.remove(&node);
        }
    }

    fn on_gateway_done(&mut self, ctl: &Control, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        let dst_vip = fx.arena.get(pkt).inner.dst_vip;
        if ctl.blackout[node.0 as usize] != 0 {
            // The outage began while this packet was in processing.
            self.drop_packet(fx, pkt, node, DropCause::Blackout);
        } else if let Some(pip) = ctl.placement.lookup(dst_vip) {
            let p = fx.arena.get_mut(pkt);
            p.outer.dst_pip = pip;
            p.outer.resolved = true;
            p.visited_gateway = true;
            // The gateway translated from ground truth; any stale-route
            // markings are now moot.
            p.opts.misdelivery = None;
            p.opts.hit_switch = None;
            if let Some(mut ev) = fx.packet_event(EventKind::GatewayDone, pkt, node) {
                ev.vip = Some(dst_vip.0);
                ev.pip = Some(pip.0);
                fx.tracer.record(ev);
            }
            self.send_on(ctl, fx, node, pkt);
        } else {
            self.drop_packet(fx, pkt, node, DropCause::Unroutable);
        }
        self.gateway_pop_next(fx, node);
    }

    // ------------------------------------------------------------------
    // Server logic
    // ------------------------------------------------------------------

    fn handle_at_server(&mut self, ctl: &Control, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        if !matches!(fx.arena.get(pkt).kind, PacketKind::Data) {
            // A learning packet that no ToR consumed: harmlessly absorbed.
            fx.arena.free(pkt);
            return;
        }
        // A data packet is addressed to one of its flow's two endpoints, so
        // "hosted here" is read off the flow and the placement (which
        // `relocate` keeps current) without searching the VIP column.
        let (vip, spec) = {
            let p = fx.arena.get(pkt);
            (p.inner.dst_vip, &ctl.flows[p.flow.0 as usize])
        };
        let is_hosted = [spec.src_vm, spec.dst_vm]
            .into_iter()
            .any(|vm| ctl.placement.vip_of(vm) == vip && ctl.placement.node_of(vm) == node);
        if !is_hosted {
            self.on_misdelivery(fx, node, pkt);
            return;
        }

        // The packet's life ends here: capture everything delivery needs,
        // then release the slot before the transport reacts (its reaction
        // may allocate ACKs or retransmits into the arena).
        let now = fx.now();
        let p = fx.arena.get(pkt);
        let (flow_id, ack_no, seq, payload) = (p.flow, p.inner.ack, p.inner.seq, p.payload);
        let (sent_ns, hops, first) = (p.sent_ns, p.switch_hops, p.first_of_flow);
        let flow = flow_id.0 as usize;
        if p.inner.flags.ack {
            // ACK back at the sender.
            fx.arena.free(pkt);
            let ops = match self.flows[flow].tcp_tx.as_deref_mut() {
                Some(tx) => tx.tcp.on_ack(now, ack_no as u64),
                None => return,
            };
            self.apply_sender_ops(ctl, fx, flow, ops);
            return;
        }

        // Forward-direction data.
        if let Some(mut ev) = fx.packet_event(EventKind::Delivery, pkt, node) {
            ev.hops = Some(hops);
            ev.latency_ns = Some(now.as_nanos().saturating_sub(sent_ns));
            fx.tracer.record(ev);
        }
        fx.arena.free(pkt);
        let m = &mut fx.metrics;
        m.record_delivery(SimTime::from_nanos(sent_ns), now, hops);
        if first {
            m.first_packet_delivered(flow_id, now);
        }
        if let FlowKind::Tcp { bytes } = ctl.flows[flow].kind {
            let ack = self.receive_segment(fx, flow, bytes, seq as u64, payload);
            // Emit a pure ACK back to the sender.
            self.send_flow_packet(ctl, fx, flow, ack as u32, 0, false, true);
        } else {
            let f = &mut self.flows[flow];
            f.udp_delivered += 1;
            if f.udp_delivered as usize >= ctl.flows[flow].udp_total() && !f.completed {
                f.completed = true;
                fx.metrics.flow_completed(flow_id, now);
            }
        }
    }

    /// Hands a segment of a `bytes`-byte flow to its receiver, boxed at the
    /// first segment and dropped, its statistics folded into the ledger,
    /// once it holds every byte; returns the ACK to emit. A segment after
    /// that is a duplicate, ACKed as the complete receiver would.
    fn receive_segment(
        &mut self,
        fx: &mut Master,
        flow: usize,
        bytes: u64,
        seq: u64,
        len: u32,
    ) -> u64 {
        let f = &mut self.flows[flow];
        if f.rx_done {
            return bytes;
        }
        let rx = f.tcp_rx.get_or_insert_default();
        let ack = rx.on_data(seq, len);
        if ack >= bytes {
            fx.counters.reordered_segments += rx.reordered_segments;
            (f.tcp_rx, f.rx_done) = (None, true);
        }
        ack
    }

    fn on_misdelivery(&mut self, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        let now = fx.now();
        fx.counters.record_misdelivery(now);
        if let Some(ev) = fx.packet_event(EventKind::Misdelivery, pkt, node) {
            fx.tracer.record(ev);
        }
        fx.events
            .schedule_in(MISDELIVERY_PENALTY, Event::HostForward { node, pkt });
    }

    fn on_host_forward(&mut self, ctl: &Control, fx: &mut Master, node: NodeId, pkt: PacketRef) {
        let vip = fx.arena.get(pkt).inner.dst_vip;
        match self.world.misdelivery_policy {
            MisdeliveryPolicy::FollowMe => {
                match ctl.follow_me.get(&(node, vip)) {
                    Some(&new_pip) => {
                        let p = fx.arena.get_mut(pkt);
                        p.outer.dst_pip = new_pip;
                        p.outer.resolved = true;
                    }
                    None => {
                        // No rule: the VM is simply gone; drop.
                        self.drop_packet(fx, pkt, node, DropCause::Unroutable);
                        return;
                    }
                }
            }
            MisdeliveryPolicy::ToGateway => {
                let gw = self.world.dir.pick(fx.arena.get(pkt).flow.0 * 2);
                // Keep the original outer source so the ToR can recognize
                // the forward as a misdelivery and tag it (§3.3), and keep
                // the hit-switch option so it can target invalidations. A
                // host that is itself the outer source tags the packet: its
                // ToR cannot tell the forward from the sender's own traffic.
                let host_pip = self.world.topo.kind(node).pip();
                let p = fx.arena.get_mut(pkt);
                p.outer.dst_pip = gw;
                p.outer.resolved = false;
                if p.outer.src_pip == host_pip {
                    p.opts.misdelivery = Some(MisdeliveryTag {
                        vip,
                        stale_pip: host_pip,
                    });
                }
            }
        }
        self.send_on(ctl, fx, node, pkt);
    }
}

/// The wire certification of every forwarded packet: its encoding is
/// exactly as long as the `wire_size` the links serialize, and decoding it
/// gives back every wire-visible field (`sv2p_packet::wire`). Every packet
/// is encoded into the same buffer, so a check allocates nothing.
#[cfg(debug_assertions)]
fn certify_wire(p: &Packet) {
    use sv2p_packet::wire;
    thread_local! {
        static FRAME: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    FRAME.with_borrow_mut(|frame| {
        wire::encode(p, frame);
        assert_eq!(
            frame.len(),
            p.wire_size() as usize,
            "encoded length of {p:?}"
        );
        let back = wire::decode(frame).unwrap_or_else(|e| panic!("{p:?} does not decode: {e}"));
        assert!(wire::wire_eq(p, &back), "{p:?} decodes as {back:?}");
    });
}
