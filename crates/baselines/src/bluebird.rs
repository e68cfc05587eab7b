//! Bluebird (NSDI'22) — ToR route caches backed by a switch-local control
//! plane.
//!
//! "ToR switches resolve addresses in the data plane when they are in the
//! cache (route cache); otherwise, the control plane (SFE) forwards packets
//! and updates the cache. We set the data to control plane bandwidth to
//! 20 Gbps, the forwarding latency of packets by the control plane to
//! 8.5 µsec, and the cache insertion latency to 2 msec" (§5) — the three
//! constants below.
//!
//! Hosts send unresolved packets that the first-hop ToR must translate
//! ([`sv2p_vnet::HostResolution::FirstHopTor`]); there are no translation
//! gateways. A data-plane miss detours the packet through the bandwidth-
//! limited control link, which drops when its backlog exceeds the buffer —
//! the effect behind Bluebird's poor showing under bursts (§5.1).

use sv2p_packet::{Packet, PacketKind, Pip, Vip};
use sv2p_simcore::{FxHashMap, SimDuration, SimTime};
use sv2p_topology::{NodeId, SwitchRole};
use sv2p_vnet::{
    AgentOutput, CacheOp, HostAgent, HostResolution, PacketAction, Placement, Strategy,
    SwitchAgent, SwitchCtx,
};
use switchv2p::cache::{push_insert_ops, Admission, DirectMappedCache};

/// Data-plane to control-plane link rate: 20 Gbps (§5).
const CONTROL_BANDWIDTH_BPS: u64 = 20_000_000_000;
/// Control-plane forwarding latency per packet: 8.5 µs (§5).
const CONTROL_LATENCY: SimDuration = SimDuration::from_nanos(8_500);
/// Delay until a control-plane-resolved mapping appears in the route cache:
/// 2 ms (§5).
const INSERTION_LATENCY: SimDuration = SimDuration::from_millis(2);
/// Control-link backlog limit, 1 MiB: a miss that finds more than this
/// queued ahead of it on the control link is dropped.
const CONTROL_BUFFER_BYTES: u64 = 1024 * 1024;

/// The Bluebird baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bluebird;

/// ToR agent: route cache + modeled SFE.
#[derive(Debug)]
struct BluebirdTorAgent {
    cache: DirectMappedCache,
    /// Mappings resolved by the SFE, visible in the cache after the
    /// insertion latency.
    pending: FxHashMap<Vip, (Pip, SimTime)>,
    /// When the control link frees up.
    control_busy_until: SimTime,
}

impl BluebirdTorAgent {
    /// Moves matured pending insertions into the route cache. Sorted by VIP
    /// so line-collision winners (and any traced ops) never depend on
    /// `HashMap` iteration order.
    fn flush_pending(&mut self, now: SimTime, mut ops: Option<&mut Vec<CacheOp>>) {
        let mut ready: Vec<Vip> = self
            .pending
            .iter()
            .filter(|&(_, &(_, at))| at <= now)
            .map(|(&v, _)| v)
            .collect();
        ready.sort_unstable_by_key(|v| v.0);
        for vip in ready {
            let (pip, _) = self.pending.remove(&vip).expect("pending entry");
            let outcome = self.cache.insert(vip, pip, Admission::All);
            if let Some(ops) = ops.as_deref_mut() {
                push_insert_ops(ops, outcome, CacheOp::Insert { vip, pip });
            }
        }
    }
}

impl SwitchAgent for BluebirdTorAgent {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        if !matches!(pkt.kind, PacketKind::Data) || pkt.outer.resolved {
            return AgentOutput::forward();
        }
        let mut out = AgentOutput::forward();
        let trace = ctx.trace_cache_ops;
        self.flush_pending(ctx.now, trace.then_some(&mut out.cache_ops));

        // Route-cache lookup (data plane).
        if let Some((pip, _)) = self.cache.lookup(pkt.inner.dst_vip) {
            pkt.outer.dst_pip = pip;
            pkt.outer.resolved = true;
            out.cache_hit = true;
            return out;
        }

        // Miss: the SFE takes over. Model the 20 Gbps control link as a
        // single-server queue with a finite backlog.
        let ser = SimDuration::serialization(pkt.wire_size(), CONTROL_BANDWIDTH_BPS);
        let backlog = self.control_busy_until.saturating_since(ctx.now);
        let backlog_bytes = (backlog.as_secs_f64() * CONTROL_BANDWIDTH_BPS as f64 / 8.0) as u64;
        if backlog_bytes > CONTROL_BUFFER_BYTES {
            out.action = PacketAction::Drop;
            return out;
        }
        let start = self.control_busy_until.max(ctx.now);
        self.control_busy_until = start + ser;
        let detour = self.control_busy_until.saturating_since(ctx.now) + CONTROL_LATENCY;

        // The SFE holds the full mapping table (installed by the SDN
        // controller); translate and arrange the cache insertion.
        match ctx.placement.lookup(pkt.inner.dst_vip) {
            Some(pip) => {
                pkt.outer.dst_pip = pip;
                pkt.outer.resolved = true;
                self.pending
                    .entry(pkt.inner.dst_vip)
                    .or_insert((pip, ctx.now + INSERTION_LATENCY));
                out.action = PacketAction::Delay(detour);
            }
            None => out.action = PacketAction::Drop,
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.cache.occupancy()
    }

    fn resident_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Vip, (Pip, SimTime))>() + 1;
        self.cache.resident_bytes() + self.pending.capacity() * entry
    }

    fn entries(&self) -> Vec<(Vip, Pip)> {
        self.cache.entries()
    }

    fn reset(&mut self) {
        self.cache = DirectMappedCache::new(self.cache.capacity());
        self.pending.clear();
        self.control_busy_until = SimTime::ZERO;
    }
}

/// Host agent: defer all translation to the first-hop ToR.
#[derive(Debug, Default)]
struct BluebirdHostAgent;

impl HostAgent for BluebirdHostAgent {
    fn resolve(&mut self, _host: NodeId, _placement: &Placement, _dst_vip: Vip) -> HostResolution {
        HostResolution::FirstHopTor
    }
}

impl Strategy for Bluebird {
    fn name(&self) -> &'static str {
        "Bluebird"
    }

    fn cache_weight(&self, role: SwitchRole) -> f64 {
        if matches!(role, SwitchRole::Tor | SwitchRole::GatewayTor) {
            1.0
        } else {
            0.0
        }
    }

    fn make_switch_agent(&self, _role: SwitchRole, lines: usize) -> Box<dyn SwitchAgent> {
        Box::new(BluebirdTorAgent {
            cache: DirectMappedCache::new(lines),
            pending: FxHashMap::default(),
            control_busy_until: SimTime::ZERO,
        })
    }

    fn make_host_agent(&self) -> Box<dyn HostAgent> {
        Box::new(BluebirdHostAgent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::packet::Protocol;
    use sv2p_packet::{InnerHeader, OuterHeader, SwitchTag};
    use sv2p_simcore::SimRng;

    fn mk_ctx<'a>(placement: &'a Placement, rng: &'a mut SimRng, now: SimTime) -> SwitchCtx<'a> {
        SwitchCtx {
            now,
            tag: SwitchTag(0),
            switch_pip: Pip(9000),
            role: SwitchRole::Tor,
            my_pod: Some(0),
            ingress_host: Some(Pip(1)),
            dst_attached: false,
            placement,
            rng,
            pod_of: &|_| None,
            pip_of_tag: &|_| Pip(0),
            trace_cache_ops: false,
        }
    }

    /// `n` VMs; VM *i* lives on the server with PIP `1000 + i`.
    fn placement(n: u32) -> Placement {
        Placement::from_hosts((0..n).map(|i| (Pip(1000 + i), NodeId(i))).collect(), 1)
    }

    fn unresolved(dst_vip: Vip) -> Packet {
        Packet {
            outer: OuterHeader {
                src_pip: Pip(1),
                dst_pip: Pip(0),
                resolved: false,
            },
            inner: InnerHeader {
                src_vip: Vip(500),
                dst_vip,
                src_port: 1,
                dst_port: 2,
                protocol: Protocol::Udp,
                ..InnerHeader::default()
            },
            payload: 1000,
            ..Packet::default()
        }
    }

    fn agent_and_placement() -> (Box<dyn SwitchAgent>, Placement) {
        let agent = Bluebird.make_switch_agent(SwitchRole::Tor, 64);
        (agent, placement(6))
    }

    #[test]
    fn miss_detours_through_control_plane_then_cache_serves() {
        let (mut agent, placement) = agent_and_placement();
        let mut rng = SimRng::new(1);
        let vm5 = placement.vip_of(5);
        let mut p = unresolved(vm5);
        let out = agent.on_packet(&mut mk_ctx(&placement, &mut rng, SimTime::ZERO), &mut p);
        // Control-plane detour: resolved but delayed >= 8.5us.
        match out.action {
            PacketAction::Delay(d) => assert!(d >= SimDuration::from_nanos(8_500), "{d}"),
            other => panic!("{other:?}"),
        }
        assert!(p.outer.resolved);
        assert_eq!(p.outer.dst_pip, Pip(1005));
        assert!(!out.cache_hit);

        // Before 2ms: still a control-plane miss.
        let mut p2 = unresolved(vm5);
        let out = agent.on_packet(
            &mut mk_ctx(&placement, &mut rng, SimTime::from_millis(1)),
            &mut p2,
        );
        assert!(matches!(out.action, PacketAction::Delay(_)));
        assert!(!out.cache_hit);

        // After 2ms: data-plane hit, zero detour.
        let mut p3 = unresolved(vm5);
        let out = agent.on_packet(
            &mut mk_ctx(&placement, &mut rng, SimTime::from_millis(3)),
            &mut p3,
        );
        assert!(out.cache_hit);
        assert_eq!(out.action, PacketAction::Forward);
    }

    #[test]
    fn control_link_backlog_drops() {
        let mut agent = Bluebird.make_switch_agent(SwitchRole::Tor, 64);
        let n = 2_000;
        let placement = placement(n);
        let mut rng = SimRng::new(1);
        let wire = u64::from(unresolved(placement.vip_of(0)).wire_size());
        let mut accepted = 0u32;
        // A burst of misses at the same instant overruns the 20G link: about
        // 1 MiB of them are queued, the rest dropped.
        for vm in 0..n as usize {
            let mut p = unresolved(placement.vip_of(vm));
            let out = agent.on_packet(&mut mk_ctx(&placement, &mut rng, SimTime::ZERO), &mut p);
            if out.action != PacketAction::Drop {
                accepted += 1;
            }
        }
        assert!(accepted < n, "burst must overflow the control link");
        let queued = u64::from(accepted) * wire;
        assert!(
            queued.abs_diff(CONTROL_BUFFER_BYTES) <= 2 * wire,
            "{accepted} packets of {wire} B queued against a {CONTROL_BUFFER_BYTES} B buffer"
        );
    }

    #[test]
    fn unknown_vip_is_dropped() {
        let (mut agent, placement) = agent_and_placement();
        let mut rng = SimRng::new(1);
        let mut p = unresolved(Vip(999));
        let out = agent.on_packet(&mut mk_ctx(&placement, &mut rng, SimTime::ZERO), &mut p);
        assert_eq!(out.action, PacketAction::Drop);
    }

    #[test]
    fn hosts_defer_to_tor_and_no_gateways() {
        let mut h = BluebirdHostAgent;
        assert_eq!(
            h.resolve(NodeId(1), &Placement::default(), Vip(1)),
            HostResolution::FirstHopTor
        );
    }
}
