//! Kernel loops: calls into each layer's public functions, at the occupancy
//! the workload reached, under spans the benchmark records itself. Their
//! per-call costs times the run's public counts are the first draft of the
//! layer-by-layer cost model; nothing here is asserted.

use std::hint::black_box;

use sv2p_metrics::RunSummary;
use sv2p_netsim::{Engine, PacketArena};
use sv2p_packet::{
    FlowId, InnerHeader, OuterHeader, Packet, PacketId, PacketKind, Pip, TcpFlags, TunnelOptions,
    Vip,
};
use sv2p_simcore::{EventQueue, SimRng, SimTime};
use sv2p_topology::{FatTreeConfig, NodeId, Routing};
use sv2p_transport::{TcpConfig, TcpSender};
use sv2p_vnet::MappingOp;
use switchv2p::{Admission, DirectMappedCache};
use v2p_controlplane::wire::{decode_reply, decode_request, encode_reply, encode_request};
use v2p_controlplane::{RequestBatch, StripedControlPlane};

use crate::spans::{SpanId, SpanLog, BATCH};

/// Calls per kernel: enough batches for a stable mean, little enough that a
/// traced repetition's kernels stay under a second.
const CALLS: u64 = 8 * BATCH;

/// What the traced repetition measured, for sizing the kernels and for the
/// cost model.
pub struct SimObserved<'a> {
    pub sim: &'a Engine,
    pub summary: &'a RunSummary,
    pub fabric: &'a FatTreeConfig,
    pub cache_entries: usize,
    pub seed: u64,
    pub link_arrival_calls: u64,
    pub run_s: f64,
}

fn sample_packet(i: u64) -> Packet {
    Packet {
        id: PacketId(i),
        flow: FlowId(i >> 4),
        kind: PacketKind::Data,
        outer: OuterHeader {
            src_pip: Pip(1),
            dst_pip: Pip(2),
            resolved: false,
        },
        inner: InnerHeader {
            src_vip: Vip(1),
            dst_vip: Vip(2),
            src_port: 1,
            dst_port: 2,
            protocol: sv2p_packet::packet::Protocol::Tcp,
            seq: i as u32,
            ack: 0,
            flags: TcpFlags::default(),
        },
        opts: TunnelOptions::EMPTY,
        payload: 1000,
        switch_hops: 0,
        sent_ns: i,
        first_of_flow: false,
        visited_gateway: false,
    }
}

/// Runs every simulator-side kernel and returns `(metric, value)` pairs.
pub fn sim_kernels(
    log: &mut SpanLog,
    parent: SpanId,
    o: &SimObserved<'_>,
) -> Vec<(&'static str, f64)> {
    let root = log.open("kernels", Some(parent));
    let mut rng = SimRng::new(o.seed ^ 0x6B65_726E);
    let mut out = Vec::new();

    // Calendar: hold the workload's peak population; each call pops the next
    // event and schedules one. Nine delays in ten are link-scale (up to
    // 20 us), one is timer-scale (1 ms) and lands in the overflow heap.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut delay_ns = move || {
        if rng.chance(0.1) {
            1_000_000
        } else {
            rng.gen_range(100..20_000u64)
        }
    };
    for i in 0..o.sim.peak_queue().max(1) as u64 {
        queue.schedule_at(SimTime::from_nanos(delay_ns()), i);
    }
    let calendar_ns = log.time_calls("simcore.calendar", root, CALLS, |i| {
        let ev = queue.pop().expect("population is constant");
        queue.schedule_at(SimTime::from_nanos(ev.time.as_nanos() + delay_ns()), i);
    });
    out.push(("simcore.calendar_ns", calendar_ns));
    drop(queue);

    // Arena: hold the peak of packets in flight; each call frees one slot
    // and allocates into it again.
    let mut rng = SimRng::new(o.seed ^ 0x6172_656E);
    let mut arena = PacketArena::new();
    let live = o.sim.peak_arena().max(1);
    let mut handles: Vec<_> = (0..live as u64)
        .map(|i| arena.alloc(sample_packet(i)))
        .collect();
    let arena_ns = log.time_calls("netsim.arena", root, CALLS, |i| {
        let slot = rng.gen_range(0..live);
        arena.free(handles[slot]);
        handles[slot] = arena.alloc(sample_packet(i));
    });
    out.push(("netsim.arena_ns", arena_ns));
    drop((arena, handles));

    // Topology: build the workload's fabric and its routing tables once.
    let ((topo, routing), build_s) = log.time("topology.build", Some(root), || {
        let topo = o.fabric.build();
        let routing = Routing::new(o.fabric, &topo);
        (topo, routing)
    });
    out.push(("topology.build_s", build_s));
    let switches: Vec<NodeId> = topo.switches().map(|n| n.id).collect();
    let servers: Vec<NodeId> = topo.servers().map(|n| n.id).collect();
    let mut scratch = Vec::new();
    let candidates_ns = log.time_calls("topology.candidates", root, CALLS, |_| {
        let at = switches[rng.gen_range(0..switches.len())];
        let dst = servers[rng.gen_range(0..servers.len())];
        routing.candidates_into(&topo, at, dst, &mut scratch);
        black_box(scratch.len());
    });
    out.push(("topology.candidates_ns", candidates_ns));

    // Cache: one switch's share of the budget, probed with four times as
    // many keys as it has lines (hits, conflict misses and evictions all
    // occur). A workload without caches reports 0 for these.
    let placement = o.sim.placement();
    let placed = placement.len();
    let lines = match o.cache_entries {
        0 => 0,
        n => (n / switches.len().max(1)).max(1),
    };
    let (mut lookup_ns, mut insert_ns, mut invalidate_ns) = (0.0, 0.0, 0.0);
    if lines > 0 {
        let keys: Vec<usize> = (0..4 * lines).map(|_| rng.gen_range(0..placed)).collect();
        let mut cache = DirectMappedCache::new(lines);
        insert_ns = log.time_calls("switchv2p.cache_insert", root, CALLS, |i| {
            let vm = keys[i as usize % keys.len()];
            black_box(cache.insert(placement.vip_of(vm), placement.pip_of(vm), Admission::All));
        });
        lookup_ns = log.time_calls("switchv2p.cache_lookup", root, CALLS, |i| {
            black_box(cache.lookup(placement.vip_of(keys[i as usize % keys.len()])));
        });
        invalidate_ns = log.time_calls("switchv2p.cache_invalidate", root, CALLS, |i| {
            let vm = keys[i as usize % keys.len()];
            if !cache.invalidate(placement.vip_of(vm), None) {
                cache.insert(placement.vip_of(vm), placement.pip_of(vm), Admission::All);
            }
        });
    }
    out.push(("switchv2p.cache_lookup_ns", lookup_ns));
    out.push(("switchv2p.cache_insert_ns", insert_ns));
    out.push(("switchv2p.cache_invalidate_ns", invalidate_ns));

    // Mapping database and placement index, at the placed-VM count.
    let mut db = placement.seed_db();
    let mapping_lookup_ns = log.time_calls("vnet.mapping_lookup", root, CALLS, |_| {
        black_box(db.lookup(placement.vip_of(rng.gen_range(0..placed))));
    });
    let mapping_write_ns = log.time_calls("vnet.mapping_write", root, CALLS / 4, |i| {
        let vip = placement.vip_of(rng.gen_range(0..placed));
        let to_pip = placement.pip_of(rng.gen_range(0..placed));
        black_box(db.apply(MappingOp::Migrate {
            vip,
            to_pip,
            at_ns: Some(i),
        }));
    });
    let placement_index_ns = log.time_calls("vnet.placement_index", root, CALLS, |_| {
        black_box(placement.index_of(placement.vip_of(rng.gen_range(0..placed))));
    });
    out.push(("vnet.mapping_lookup_ns", mapping_lookup_ns));
    out.push(("vnet.mapping_write_ns", mapping_write_ns));
    out.push(("vnet.placement_index_ns", placement_index_ns));
    drop(db);

    // TCP: cumulative ACKs, one segment each, against a sender in slow
    // start; a fresh sender per batch keeps windows flow-sized.
    let tcp = TcpConfig::reorder_tolerant();
    let mss = u64::from(tcp.mss);
    let mut sender = TcpSender::new(tcp, u64::MAX / 2);
    let mut acked = 0u64;
    let tcp_ack_ns = log.time_calls("transport.tcp_ack", root, CALLS, |i| {
        if i % BATCH == 0 {
            sender = TcpSender::new(tcp, u64::MAX / 2);
            black_box(sender.start(SimTime::ZERO));
            acked = 0;
        }
        acked += mss;
        black_box(sender.on_ack(SimTime::from_micros(i % BATCH + 1), acked));
    });
    out.push(("transport.tcp_ack_ns", tcp_ack_ns));

    // Cost model, first draft: each public count times the kernel that
    // stands for its layer, as a share of the measured run. Every event is
    // one schedule and one pop; every switch arrival routes and, with caches,
    // probes one; every packet sent or ACKed takes and returns an arena slot;
    // gateways look mappings up; migrations write them; deliveries index the
    // placement and feed the sender an ACK.
    let s = o.summary;
    let per_arrival = candidates_ns + lookup_ns;
    let packets = (s.data_packets_sent + s.data_packets_delivered) as f64;
    let attributed_ns = o.sim.events_executed() as f64 * calendar_ns
        + o.link_arrival_calls as f64 * per_arrival
        + packets * arena_ns
        + s.gateway_packets as f64 * mapping_lookup_ns
        + s.migrations as f64 * mapping_write_ns
        + s.data_packets_delivered as f64 * (placement_index_ns + tcp_ack_ns)
        + s.learning_packets as f64 * insert_ns;
    let attributed = attributed_ns / (o.run_s * 1e9).max(1.0);
    out.push(("model.attributed_frac", attributed));
    out.push(("model.residual_frac", 1.0 - attributed));
    log.close(root);
    out
}

/// Replays `batches` through the stages of one round trip, in the order and
/// with the reused buffers of the served path, and returns nanoseconds per
/// batch for each stage. Each call into the codec or the store is one span.
pub fn ctl_kernels(
    log: &mut SpanLog,
    parent: SpanId,
    state: &StripedControlPlane,
    batches: &[RequestBatch],
) -> Vec<(&'static str, f64)> {
    const STAGES: [&str; 5] = [
        "controlplane.encode_request",
        "controlplane.decode_request",
        "controlplane.execute",
        "controlplane.encode_reply",
        "controlplane.decode_reply",
    ];
    let root = log.open("kernels", Some(parent));
    let mut busy_s = [0.0f64; 5];
    let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
    for batch in batches {
        let ((), s) = log.time(STAGES[0], Some(root), || {
            encode_request(batch, &mut request_frame)
        });
        busy_s[0] += s;
        let (request, s) = log.time(STAGES[1], Some(root), || {
            decode_request(&request_frame).expect("frame just encoded")
        });
        busy_s[1] += s;
        let (reply, s) = log.time(STAGES[2], Some(root), || state.execute_shared(&request));
        busy_s[2] += s;
        let ((), s) = log.time(STAGES[3], Some(root), || {
            encode_reply(&reply, &mut reply_frame)
        });
        busy_s[3] += s;
        let (decoded, s) = log.time(STAGES[4], Some(root), || {
            decode_reply(&reply_frame).expect("frame just encoded")
        });
        busy_s[4] += s;
        black_box(decoded);
    }
    log.close(root);
    let per_batch = |i: usize| busy_s[i] * 1e9 / batches.len().max(1) as f64;
    vec![
        ("controlplane.encode_request_ns", per_batch(0)),
        ("controlplane.decode_request_ns", per_batch(1)),
        ("controlplane.execute_ns", per_batch(2)),
        ("controlplane.encode_reply_ns", per_batch(3)),
        ("controlplane.decode_reply_ns", per_batch(4)),
    ]
}
