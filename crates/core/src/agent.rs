//! The per-switch SwitchV2P protocol state machine (paper §3.2–§3.3).
//!
//! One agent instance runs in every switch. On each packet it applies, in
//! order:
//!
//! 1. **Misdelivery tagging** (ToRs): an unresolved packet forwarded up by an
//!    attached host that is not its original sender was delivered to a stale
//!    location; so was one that host tagged itself, naming itself, which it
//!    does when it is the sender (the outer source tells nothing then). The
//!    ToR tags it (vip, stale pip), invalidates locally, and —
//!    if the packet carries the hit-switch identifier of the cache that
//!    served the stale entry — emits a targeted invalidation packet, subject
//!    to the timestamp vector's one-RTT suppression.
//! 2. **Tag-driven invalidation** (all switches): a riding misdelivery tag
//!    invalidates a matching stale entry; a *newer* local mapping survives
//!    and may still serve the packet.
//! 3. **Lookup** (all switches with cache): unresolved packets are
//!    translated on a hit; the switch writes its identifier into the packet
//!    and, for spines, may attach a *promotion* if the entry was already hot
//!    and the packet leaves the pod.
//! 4. **Promotion pickup** (cores): cores admit promoted entries if the
//!    resident line is cold.
//! 5. **Spillover pickup** (all): an entry evicted upstream is re-inserted
//!    here if admission allows.
//! 6. **Learning** (role-dependent, Table 1): gateway ToRs learn
//!    destinations and coin-flip learning packets toward the sender's ToR;
//!    ToRs learn sources and absorb learning packets; spines (and gateway
//!    spines) learn destinations under the access-bit-clear policy; cores
//!    learn only from promotions. Insertions that evict a live entry attach
//!    it as spillover.

use sv2p_packet::packet::Protocol;
use sv2p_packet::{
    InnerHeader, MappingOption, MisdeliveryTag, OuterHeader, Packet, PacketKind, Pip, SwitchTag,
    Vip,
};
use sv2p_simcore::{FxHashMap, SimDuration, SimTime};
use sv2p_topology::{Layer, SwitchRole};
use sv2p_vnet::{AgentOutput, CacheOp, SwitchAgent, SwitchCtx};

use crate::cache::{push_insert_ops, Admission, DirectMappedCache, InsertOutcome};
use crate::config::{InvalidationMode, SwitchV2PConfig};

/// The network's base RTT, 12 µs (paper §5): a ToR's timestamp vector sends
/// at most one invalidation packet per target switch within it (§3.3).
pub const BASE_RTT: SimDuration = SimDuration::from_micros(12);

/// Probability that a gateway ToR turns a processed packet into a learning
/// packet: "0.5% of all the traffic passing through the gateway switch"
/// (§5).
pub const P_LEARN: f64 = 0.005;

/// SwitchV2P behavior for one switch. It keeps no copy of the switch's role:
/// every role-dependent step reads `SwitchCtx::role`, so a control-plane
/// reassignment (§4 "Gateway migration") takes effect on the next packet
/// while the cache stays.
#[derive(Debug)]
pub struct SwitchV2PAgent {
    cfg: SwitchV2PConfig,
    /// The in-switch mapping cache.
    pub cache: DirectMappedCache,
    /// ToRs' timestamp vector: last invalidation-packet send per target.
    ts_vector: FxHashMap<SwitchTag, SimTime>,
}

fn admission(role: SwitchRole) -> Admission {
    match role {
        SwitchRole::Tor | SwitchRole::GatewayTor => Admission::All,
        SwitchRole::Spine | SwitchRole::GatewaySpine | SwitchRole::Core => Admission::AbitClear,
    }
}

impl SwitchV2PAgent {
    /// An agent for a switch with `lines` cache lines.
    pub fn new(lines: usize, cfg: SwitchV2PConfig) -> Self {
        SwitchV2PAgent {
            cfg,
            cache: DirectMappedCache::new(lines),
            ts_vector: FxHashMap::default(),
        }
    }

    /// Inserts and, on a live eviction, attaches the evictee as spillover if
    /// the packet's slot is free (§3.2.2 "Cache spillover").
    fn insert_with_spill(
        &mut self,
        vip: Vip,
        pip: Pip,
        admission: Admission,
        pkt: &mut Packet,
    ) -> InsertOutcome {
        let outcome = self.cache.insert(vip, pip, admission);
        if let InsertOutcome::Evicted {
            vip: evip,
            pip: epip,
            abit,
        } = outcome
        {
            let worth_keeping = !self.cfg.spill_only_active || abit;
            if self.cfg.spillover && worth_keeping && pkt.opts.spillover.is_none() {
                pkt.opts.spillover = Some(MappingOption {
                    vip: evip,
                    pip: epip,
                });
            }
        }
        outcome
    }

    fn handle_data(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        let mut out = AgentOutput::forward();
        let dst_vip = pkt.inner.dst_vip;

        // 1. Misdelivery tagging at ToRs (§3.3).
        if ctx.role.layer() == Layer::Tor && !pkt.outer.resolved {
            if let Some(host_pip) = ctx.ingress_host {
                let misdelivered = match pkt.opts.misdelivery {
                    None => host_pip != pkt.outer.src_pip,
                    Some(t) => t.stale_pip == host_pip && host_pip == pkt.outer.src_pip,
                };
                if misdelivered {
                    let tag = MisdeliveryTag {
                        vip: dst_vip,
                        stale_pip: host_pip,
                    };
                    pkt.opts.misdelivery = Some(tag);
                    if self.cache.invalidate(dst_vip, Some(host_pip)) && ctx.trace_cache_ops {
                        out.cache_ops.push(CacheOp::Invalidate { vip: dst_vip });
                    }
                    // A ToR that served the stale entry itself has just
                    // invalidated it above; a packet to its own tag would
                    // never leave.
                    if self.cfg.invalidation != InvalidationMode::None {
                        let hit_switch = pkt.opts.hit_switch.take();
                        if let Some(culprit) = hit_switch.filter(|&c| c != ctx.tag) {
                            let allowed = match self.cfg.invalidation {
                                InvalidationMode::NoTimestampVector => true,
                                InvalidationMode::TimestampVector => {
                                    let last = self.ts_vector.get(&culprit).copied();
                                    match last {
                                        Some(t) if ctx.now.saturating_since(t) < BASE_RTT => false,
                                        _ => {
                                            self.ts_vector.insert(culprit, ctx.now);
                                            true
                                        }
                                    }
                                }
                                InvalidationMode::None => unreachable!(),
                            };
                            if allowed {
                                let to = (ctx.pip_of_tag)(culprit);
                                let kind = PacketKind::Invalidation(tag);
                                out.emit
                                    .push(protocol_packet(kind, ctx.switch_pip, to, tag.vip));
                            }
                        }
                    }
                }
            }
        }

        // 2. Tag-driven invalidation en route.
        if let Some(tag) = pkt.opts.misdelivery {
            if self.cache.invalidate(tag.vip, Some(tag.stale_pip)) && ctx.trace_cache_ops {
                out.cache_ops.push(CacheOp::Invalidate { vip: tag.vip });
            }
        }

        // 3. Lookup.
        if !pkt.outer.resolved {
            if let Some((pip, was_hot)) = self.cache.lookup(dst_vip) {
                // Never re-serve the value the tag just told us is stale
                // (invalidation above removed it, but a *different* stale
                // value could still be the tag's pip after two migrations).
                let tag_stale = pkt
                    .opts
                    .misdelivery
                    .is_some_and(|t| t.vip == dst_vip && t.stale_pip == pip);
                if !tag_stale {
                    // Promotion (§3.2.2): only plain spines, only for
                    // already-hot entries, only when the packet leaves the
                    // pod.
                    if ctx.role == SwitchRole::Spine
                        && self.cfg.promotion
                        && was_hot
                        && pkt.opts.promotion.is_none()
                    {
                        let dst_pod = (ctx.pod_of)(pip);
                        if dst_pod != ctx.my_pod {
                            pkt.opts.promotion = Some(MappingOption { vip: dst_vip, pip });
                        }
                    }
                    pkt.outer.dst_pip = pip;
                    pkt.outer.resolved = true;
                    pkt.opts.hit_switch = Some(ctx.tag);
                    out.cache_hit = true;
                }
            }
        }

        // 4. Promotion pickup at cores.
        if ctx.role == SwitchRole::Core {
            if let Some(m) = pkt.opts.promotion {
                let outcome = self.cache.insert(m.vip, m.pip, Admission::AbitClear);
                match outcome {
                    InsertOutcome::Inserted | InsertOutcome::Evicted { .. } => {
                        pkt.opts.promotion = None;
                        out.promotion_inserted = true;
                    }
                    InsertOutcome::Updated => {
                        pkt.opts.promotion = None;
                    }
                    InsertOutcome::Rejected => {}
                }
                if ctx.trace_cache_ops {
                    let accepted = CacheOp::Promote {
                        vip: m.vip,
                        pip: m.pip,
                    };
                    push_insert_ops(&mut out.cache_ops, outcome, accepted);
                }
            }
        }

        // 5. Spillover pickup (entries evicted by an upstream switch).
        if self.cfg.spillover {
            if let Some(m) = pkt.opts.spillover {
                let outcome = self.cache.insert(m.vip, m.pip, admission(ctx.role));
                match outcome {
                    InsertOutcome::Inserted | InsertOutcome::Evicted { .. } => {
                        // Note: accepting a spill may itself evict; that
                        // evictee is not re-spilled (the slot is in use) —
                        // chains stop here, bounding header growth.
                        pkt.opts.spillover = None;
                        out.spill_inserted = true;
                    }
                    InsertOutcome::Updated => {
                        pkt.opts.spillover = None;
                    }
                    InsertOutcome::Rejected => {}
                }
                if ctx.trace_cache_ops {
                    let accepted = CacheOp::Spill {
                        vip: m.vip,
                        pip: m.pip,
                    };
                    push_insert_ops(&mut out.cache_ops, outcome, accepted);
                }
            }
        }

        // 6. Role-based learning (Table 1).
        match ctx.role {
            SwitchRole::GatewayTor => {
                if pkt.outer.resolved {
                    let pip = pkt.outer.dst_pip;
                    let outcome = self.insert_with_spill(dst_vip, pip, Admission::All, pkt);
                    if ctx.trace_cache_ops {
                        let accepted = CacheOp::Insert { vip: dst_vip, pip };
                        push_insert_ops(&mut out.cache_ops, outcome, accepted);
                    }
                    if self.cfg.learning_packets && ctx.rng.chance(P_LEARN) {
                        let m = MappingOption {
                            vip: dst_vip,
                            pip: pkt.outer.dst_pip,
                        };
                        let to = pkt.outer.src_pip;
                        let kind = PacketKind::Learning(m);
                        out.emit
                            .push(protocol_packet(kind, ctx.switch_pip, to, m.vip));
                    }
                }
            }
            SwitchRole::Tor => {
                // Source learning: the sender's own mapping, useful when the
                // rack's receivers reply.
                let (vip, pip) = (pkt.inner.src_vip, pkt.outer.src_pip);
                let outcome = self.insert_with_spill(vip, pip, Admission::All, pkt);
                if ctx.trace_cache_ops {
                    push_insert_ops(&mut out.cache_ops, outcome, CacheOp::Insert { vip, pip });
                }
            }
            SwitchRole::Spine | SwitchRole::GatewaySpine => {
                if pkt.outer.resolved {
                    let pip = pkt.outer.dst_pip;
                    let outcome = self.insert_with_spill(dst_vip, pip, Admission::AbitClear, pkt);
                    if ctx.trace_cache_ops {
                        let accepted = CacheOp::Insert { vip: dst_vip, pip };
                        push_insert_ops(&mut out.cache_ops, outcome, accepted);
                    }
                }
            }
            SwitchRole::Core => {} // cores learn only from promotions (step 4)
        }

        out
    }
}

impl SwitchAgent for SwitchV2PAgent {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: &mut Packet) -> AgentOutput {
        match pkt.kind {
            PacketKind::Data => self.handle_data(ctx, pkt),
            PacketKind::Learning(m) => {
                if ctx.role.layer() == Layer::Tor && ctx.dst_attached {
                    let outcome = self.cache.insert(m.vip, m.pip, Admission::All);
                    let mut out = AgentOutput::consume();
                    if ctx.trace_cache_ops {
                        let accepted = CacheOp::Insert {
                            vip: m.vip,
                            pip: m.pip,
                        };
                        push_insert_ops(&mut out.cache_ops, outcome, accepted);
                    }
                    out
                } else {
                    AgentOutput::forward()
                }
            }
            PacketKind::Invalidation(tag) => {
                // Invalidate here and at every switch en route (§3.3: "all
                // the caches along the path to the destination are
                // invalidated as well").
                let removed = self.cache.invalidate(tag.vip, Some(tag.stale_pip));
                let mut out = if pkt.outer.dst_pip == ctx.switch_pip {
                    AgentOutput::consume()
                } else {
                    AgentOutput::forward()
                };
                if removed && ctx.trace_cache_ops {
                    out.cache_ops.push(CacheOp::Invalidate { vip: tag.vip });
                }
                out
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.cache.occupancy()
    }

    fn resident_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(SwitchTag, SimTime)>() + 1;
        self.cache.resident_bytes() + self.ts_vector.capacity() * entry
    }

    fn entries(&self) -> Vec<(Vip, Pip)> {
        self.cache.entries()
    }

    fn reset(&mut self) {
        let lines = self.cache.capacity();
        self.cache = DirectMappedCache::new(lines);
        self.ts_vector.clear();
    }
}

/// Builds a protocol (learning/invalidation) packet skeleton; the simulator
/// assigns its id.
fn protocol_packet(kind: PacketKind, from: Pip, to: Pip, about: Vip) -> Packet {
    Packet {
        kind,
        outer: OuterHeader {
            src_pip: from,
            dst_pip: to,
            resolved: true,
        },
        inner: InnerHeader {
            src_vip: about,
            dst_vip: about,
            protocol: Protocol::Udp,
            ..InnerHeader::default()
        },
        ..Packet::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::PacketId;
    use sv2p_simcore::SimRng;
    use sv2p_vnet::PacketAction;
    use sv2p_vnet::Placement;

    /// Test fixture: a context whose pod lookup says "VIPs below 100 are in
    /// pod 0, others pod 1" and whose switch tags map to PIP 5000+tag.
    struct Fixture {
        placement: Placement,
        rng: SimRng,
        now: SimTime,
        trace: bool,
    }

    fn pod_of(pip: Pip) -> Option<u16> {
        Some(if pip.0 < 100 { 0 } else { 1 })
    }

    fn pip_of_tag(tag: SwitchTag) -> Pip {
        Pip(5000 + tag.0 as u32)
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                placement: Placement::default(),
                rng: SimRng::new(7),
                now: SimTime::from_micros(100),
                trace: false,
            }
        }

        fn ctx<'a>(
            &'a mut self,
            role: SwitchRole,
            ingress_host: Option<Pip>,
            dst_attached: bool,
        ) -> SwitchCtx<'a> {
            SwitchCtx {
                now: self.now,
                tag: SwitchTag(9),
                switch_pip: Pip(5009),
                role,
                my_pod: Some(0),
                ingress_host,
                dst_attached,
                placement: &self.placement,
                rng: &mut self.rng,
                pod_of: &pod_of,
                pip_of_tag: &pip_of_tag,
                trace_cache_ops: self.trace,
            }
        }
    }

    fn data_packet(
        src_vip: u32,
        dst_vip: u32,
        src_pip: u32,
        dst_pip: u32,
        resolved: bool,
    ) -> Packet {
        Packet {
            id: PacketId(1),
            outer: OuterHeader {
                src_pip: Pip(src_pip),
                dst_pip: Pip(dst_pip),
                resolved,
            },
            inner: InnerHeader {
                src_vip: Vip(src_vip),
                dst_vip: Vip(dst_vip),
                src_port: 10,
                dst_port: 80,
                ..InnerHeader::default()
            },
            payload: 100,
            ..Packet::default()
        }
    }

    #[test]
    fn tor_source_learns() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let mut ctx = fx.ctx(SwitchRole::Tor, Some(Pip(11)), false);
        let out = agent.on_packet(&mut ctx, &mut pkt);
        assert_eq!(out.action, PacketAction::Forward);
        assert!(!out.cache_hit);
        assert_eq!(agent.cache.peek(Vip(1)), Some(Pip(11)), "source learned");
        assert_eq!(agent.cache.peek(Vip(2)), None, "ToRs do not dest-learn");
    }

    #[test]
    fn gateway_tor_destination_learns_resolved_only() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        // Unresolved (toward gateway): no learning.
        let mut up = data_packet(1, 2, 11, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut up);
        assert_eq!(agent.cache.peek(Vip(2)), None);
        // Resolved (leaving gateway): destination learned.
        let mut down = data_packet(1, 2, 11, 22, true);
        agent.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut down);
        assert_eq!(agent.cache.peek(Vip(2)), Some(Pip(22)));
        assert_eq!(agent.cache.peek(Vip(1)), None, "no source learning here");
    }

    #[test]
    fn a_reassigned_role_takes_effect_on_the_next_packet() {
        // §4 "Gateway migration": the former gateway ToR keeps its agent and
        // cache and is a standard ToR from the next packet on.
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mut down = data_packet(1, 2, 11, 22, true);
        agent.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut down);
        assert_eq!(
            agent.cache.peek(Vip(2)),
            Some(Pip(22)),
            "gateway ToR dest-learns"
        );
        let mut up = data_packet(3, 4, 33, 44, true);
        agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(33)), false), &mut up);
        assert_eq!(
            agent.cache.peek(Vip(3)),
            Some(Pip(33)),
            "a ToR source-learns"
        );
        assert_eq!(agent.cache.peek(Vip(4)), None, "and no longer dest-learns");
        assert_eq!(
            agent.cache.peek(Vip(2)),
            Some(Pip(22)),
            "the cache did not migrate"
        );
    }

    #[test]
    fn cache_hit_translates_and_tags_switch() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        agent.cache.insert(Vip(2), Pip(22), Admission::All);
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, None, false), &mut pkt);
        assert!(out.cache_hit);
        assert!(pkt.outer.resolved);
        assert_eq!(pkt.outer.dst_pip, Pip(22));
        assert_eq!(pkt.opts.hit_switch, Some(SwitchTag(9)));
    }

    #[test]
    fn spine_promotes_hot_entries_leaving_the_pod() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        // Dst pip 200 => pod 1 (fixture), our pod is 0: leaves the pod.
        agent.cache.insert(Vip(2), Pip(200), Admission::All);
        let mut first = data_packet(1, 2, 11, 999, false);
        let out1 = agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut first);
        assert!(out1.cache_hit);
        assert_eq!(first.opts.promotion, None, "first hit: abit was cold");
        let mut second = data_packet(1, 2, 11, 999, false);
        let out2 = agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut second);
        assert!(out2.cache_hit);
        assert_eq!(
            second.opts.promotion,
            Some(MappingOption {
                vip: Vip(2),
                pip: Pip(200)
            }),
            "second hit: entry was hot, promotion attached"
        );
    }

    #[test]
    fn spine_does_not_promote_intra_pod_or_when_gateway_spine() {
        let mut fx = Fixture::new();
        // Intra-pod destination (pip 50 => pod 0 == our pod).
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        agent.cache.insert(Vip(2), Pip(50), Admission::All);
        let mut p = data_packet(1, 2, 11, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut p);
        let mut p2 = data_packet(1, 2, 11, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut p2);
        assert_eq!(p2.opts.promotion, None, "intra-pod hit must not promote");

        // Gateway spines never promote.
        let mut gw = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        gw.cache.insert(Vip(2), Pip(200), Admission::All);
        let mut q1 = data_packet(1, 2, 11, 999, false);
        gw.on_packet(&mut fx.ctx(SwitchRole::GatewaySpine, None, false), &mut q1);
        let mut q2 = data_packet(1, 2, 11, 999, false);
        gw.on_packet(&mut fx.ctx(SwitchRole::GatewaySpine, None, false), &mut q2);
        assert_eq!(q2.opts.promotion, None);
    }

    #[test]
    fn core_learns_only_from_promotions() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        // Plain resolved traffic: no learning.
        let mut plain = data_packet(1, 2, 11, 22, true);
        agent.on_packet(&mut fx.ctx(SwitchRole::Core, None, false), &mut plain);
        assert_eq!(agent.occupancy(), 0);
        // Promoted mapping: learned, option stripped.
        let mut promoted = data_packet(1, 2, 11, 999, false);
        promoted.opts.promotion = Some(MappingOption {
            vip: Vip(7),
            pip: Pip(70),
        });
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Core, None, false), &mut promoted);
        assert!(out.promotion_inserted);
        assert_eq!(promoted.opts.promotion, None);
        assert_eq!(agent.cache.peek(Vip(7)), Some(Pip(70)));
    }

    #[test]
    fn spillover_rides_until_inserted() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mut pkt = data_packet(1, 2, 11, 22, true);
        pkt.opts.spillover = Some(MappingOption {
            vip: Vip(7),
            pip: Pip(70),
        });
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut pkt);
        assert!(out.spill_inserted);
        assert_eq!(pkt.opts.spillover, None);
        assert_eq!(agent.cache.peek(Vip(7)), Some(Pip(70)));
    }

    #[test]
    fn eviction_attaches_spillover() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(1, SwitchV2PConfig::default());
        // Fill the single line via source learning.
        let mut p1 = data_packet(1, 2, 11, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut p1);
        assert_eq!(agent.cache.peek(Vip(1)), Some(Pip(11)));
        // A different source evicts it; the evictee spills onto the packet.
        let mut p2 = data_packet(3, 2, 33, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(33)), false), &mut p2);
        assert_eq!(
            p2.opts.spillover,
            Some(MappingOption {
                vip: Vip(1),
                pip: Pip(11)
            })
        );
        assert_eq!(agent.cache.peek(Vip(3)), Some(Pip(33)));
    }

    #[test]
    fn gateway_tor_emits_learning_packets_at_p_learn() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(64, SwitchV2PConfig::default());
        let mut emitted = 0;
        // 100 000 packets expect 500 learning packets at 0.5 %; ±20 % is
        // more than four standard deviations.
        let n = 100_000;
        for i in 0..n {
            let mut pkt = data_packet(1, 2 + (i % 8), 11, 22, true);
            let out = agent.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut pkt);
            emitted += out.emit.len();
        }
        let rate = emitted as f64 / f64::from(n);
        assert!((rate / P_LEARN - 1.0).abs() < 0.2, "learning rate {rate}");
        // The learning packet targets the sender and carries the mapping.
        let mut pkt = data_packet(1, 2, 11, 22, true);
        let out = loop {
            let o = agent.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut pkt);
            if !o.emit.is_empty() {
                break o;
            }
        };
        let lp = &out.emit[0];
        assert_eq!(lp.outer.dst_pip, Pip(11));
        assert!(matches!(
            lp.kind,
            PacketKind::Learning(MappingOption {
                vip: Vip(2),
                pip: Pip(22)
            })
        ));
    }

    #[test]
    fn tor_consumes_learning_packets_for_attached_hosts() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let m = MappingOption {
            vip: Vip(4),
            pip: Pip(40),
        };
        let mut lp = protocol_packet(PacketKind::Learning(m), Pip(5000), Pip(11), Vip(4));
        // Not attached: forwarded untouched.
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, None, false), &mut lp);
        assert_eq!(out.action, PacketAction::Forward);
        assert_eq!(agent.occupancy(), 0);
        // Attached: learned and consumed.
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, None, true), &mut lp);
        assert_eq!(out.action, PacketAction::Consume);
        assert_eq!(agent.cache.peek(Vip(4)), Some(Pip(40)));
        // Spines never consume learning packets.
        let mut spine = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let out = spine.on_packet(&mut fx.ctx(SwitchRole::Spine, None, true), &mut lp);
        assert_eq!(out.action, PacketAction::Forward);
    }

    #[test]
    fn misdelivery_tagging_and_invalidation_emission() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        // The ToR holds the stale mapping too.
        agent.cache.insert(Vip(2), Pip(55), Admission::All);
        // Packet forwarded up by attached host 55, original sender 11:
        // a misdelivered forward. It carries the culprit's hit-switch tag.
        let mut pkt = data_packet(1, 2, 11, 999, false);
        pkt.opts.hit_switch = Some(SwitchTag(3));
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
        // Tagged, local stale entry invalidated, invalidation packet sent to
        // switch 3's PIP.
        assert_eq!(
            pkt.opts.misdelivery,
            Some(MisdeliveryTag {
                vip: Vip(2),
                stale_pip: Pip(55)
            })
        );
        assert_eq!(agent.cache.peek(Vip(2)), None);
        assert_eq!(out.emit.len(), 1);
        assert_eq!(out.emit[0].outer.dst_pip, pip_of_tag(SwitchTag(3)));
        assert!(matches!(out.emit[0].kind, PacketKind::Invalidation(_)));
        assert_eq!(pkt.opts.hit_switch, None, "culprit tag consumed");
    }

    /// A host that is itself the packet's sender tags its re-forward: the
    /// ToR treats it as the misdelivery it is, where an untagged packet from
    /// its sender is fresh traffic.
    #[test]
    fn a_sender_hosts_own_tag_marks_its_misdelivery() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        agent.cache.insert(Vip(2), Pip(11), Admission::All);
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut pkt);
        assert!(out.cache_hit, "fresh traffic is served");

        let tag = MisdeliveryTag {
            vip: Vip(2),
            stale_pip: Pip(11),
        };
        let mut pkt = data_packet(1, 2, 11, 999, false);
        pkt.opts.misdelivery = Some(tag);
        pkt.opts.hit_switch = Some(SwitchTag(3));
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut pkt);
        assert!(!out.cache_hit, "the stale entry is not served again");
        assert_eq!(agent.cache.peek(Vip(2)), None);
        assert_eq!(pkt.opts.misdelivery, Some(tag));
        assert_eq!(out.emit.len(), 1, "the culprit is told");
        assert_eq!(out.emit[0].outer.dst_pip, pip_of_tag(SwitchTag(3)));
    }

    #[test]
    fn a_tor_that_served_the_stale_entry_sends_itself_nothing() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        // The fixture's ToR is tag 9, and it resolved VIP 2 to host 55,
        // which no longer holds it: host 55 sends the packet back up.
        agent.cache.insert(Vip(2), Pip(55), Admission::All);
        let mut pkt = data_packet(1, 2, 11, 999, false);
        pkt.opts.hit_switch = Some(SwitchTag(9));
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
        assert_eq!(
            agent.cache.peek(Vip(2)),
            None,
            "its own line is invalidated"
        );
        assert!(pkt.opts.misdelivery.is_some(), "the misdelivery is tagged");
        assert_eq!(pkt.opts.hit_switch, None, "culprit tag consumed");
        assert!(out.emit.is_empty(), "no invalidation packet to itself");
    }

    #[test]
    fn timestamp_vector_suppresses_repeat_invalidations() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mk = |fx: &mut Fixture, agent: &mut SwitchV2PAgent| {
            let mut pkt = data_packet(1, 2, 11, 999, false);
            pkt.opts.hit_switch = Some(SwitchTag(3));
            let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
            out.emit.len()
        };
        assert_eq!(mk(&mut fx, &mut agent), 1, "first fires");
        assert_eq!(mk(&mut fx, &mut agent), 0, "suppressed within base RTT");
        fx.now += SimDuration::from_micros(11);
        assert_eq!(
            mk(&mut fx, &mut agent),
            0,
            "still suppressed just inside it"
        );
        // After one base RTT it may fire again (retransmission).
        fx.now += SimDuration::from_micros(2);
        assert_eq!(mk(&mut fx, &mut agent), 1, "re-armed after base RTT");
        assert_eq!(mk(&mut fx, &mut agent), 0, "and suppressed again");
    }

    #[test]
    fn no_timestamp_vector_fires_every_time() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::without_timestamp_vector());
        for _ in 0..5 {
            let mut pkt = data_packet(1, 2, 11, 999, false);
            pkt.opts.hit_switch = Some(SwitchTag(3));
            let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
            assert_eq!(out.emit.len(), 1);
        }
    }

    #[test]
    fn invalidation_mode_none_sends_nothing_but_still_tags() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::without_invalidations());
        let mut pkt = data_packet(1, 2, 11, 999, false);
        pkt.opts.hit_switch = Some(SwitchTag(3));
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
        assert!(out.emit.is_empty());
        assert!(pkt.opts.misdelivery.is_some());
    }

    #[test]
    fn invalidation_packets_clean_en_route_and_at_target() {
        let mut fx = Fixture::new();
        let tag = MisdeliveryTag {
            vip: Vip(2),
            stale_pip: Pip(55),
        };
        // Addressed to switch 3 — NOT the fixture's own switch (tag 9) —
        // so en-route switches forward it.
        let mut inval = protocol_packet(
            PacketKind::Invalidation(tag),
            Pip(5001),
            pip_of_tag(SwitchTag(3)),
            Vip(2),
        );
        // En-route switch with the stale entry: invalidates and forwards.
        let mut mid = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        mid.cache.insert(Vip(2), Pip(55), Admission::All);
        let out = mid.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut inval);
        assert_eq!(out.action, PacketAction::Forward);
        assert_eq!(mid.cache.peek(Vip(2)), None);
        // A newer mapping survives.
        let mut newer = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        newer.cache.insert(Vip(2), Pip(77), Admission::All);
        newer.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut inval);
        assert_eq!(newer.cache.peek(Vip(2)), Some(Pip(77)));
        // The addressed switch consumes (readdress to the fixture's tag 9).
        inval.outer.dst_pip = pip_of_tag(SwitchTag(9));
        let mut target = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        target.cache.insert(Vip(2), Pip(55), Admission::All);
        let out = target.on_packet(&mut fx.ctx(SwitchRole::Tor, None, false), &mut inval);
        assert_eq!(out.action, PacketAction::Consume);
        assert_eq!(target.cache.peek(Vip(2)), None);
    }

    #[test]
    fn riding_tag_invalidates_matching_entries_but_newer_survive_and_serve() {
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        agent.cache.insert(Vip(2), Pip(77), Admission::All); // newer mapping
        let mut pkt = data_packet(1, 2, 11, 999, false);
        pkt.opts.misdelivery = Some(MisdeliveryTag {
            vip: Vip(2),
            stale_pip: Pip(55),
        });
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut pkt);
        // The newer entry serves the packet (§3.3: "allows the packet to use
        // the cached value since it has already learned the new PIP").
        assert!(out.cache_hit);
        assert_eq!(pkt.outer.dst_pip, Pip(77));
        assert_eq!(agent.cache.peek(Vip(2)), Some(Pip(77)));
    }

    #[test]
    fn cache_ops_reported_only_when_traced() {
        // Untraced: mutations happen but cache_ops stays empty.
        let mut fx = Fixture::new();
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut pkt);
        assert!(out.cache_ops.is_empty());
        assert_eq!(agent.cache.peek(Vip(1)), Some(Pip(11)));

        // Traced: the same source-learning insert is reported.
        let mut fx = Fixture::new();
        fx.trace = true;
        let mut agent = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let out = agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut pkt);
        assert_eq!(
            out.cache_ops,
            vec![CacheOp::Insert {
                vip: Vip(1),
                pip: Pip(11)
            }]
        );

        // Traced eviction on a 1-line cache: evictee then newcomer.
        let mut one = SwitchV2PAgent::new(1, SwitchV2PConfig::default());
        let mut p1 = data_packet(1, 2, 11, 999, false);
        one.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut p1);
        let mut p2 = data_packet(3, 2, 33, 999, false);
        let out = one.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(33)), false), &mut p2);
        assert_eq!(
            out.cache_ops,
            vec![
                CacheOp::Evict {
                    vip: Vip(1),
                    pip: Pip(11)
                },
                CacheOp::Insert {
                    vip: Vip(3),
                    pip: Pip(33)
                }
            ]
        );

        // Traced misdelivery: the stale entry's invalidation is reported.
        let mut tor = SwitchV2PAgent::new(16, SwitchV2PConfig::default());
        tor.cache.insert(Vip(2), Pip(55), Admission::All);
        let mut pkt = data_packet(1, 2, 11, 999, false);
        let out = tor.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(55)), false), &mut pkt);
        assert!(out.cache_ops.contains(&CacheOp::Invalidate { vip: Vip(2) }));
    }

    #[test]
    fn ablations_disable_their_mechanisms() {
        let mut fx = Fixture::new();
        // No spillover: evictions disappear silently.
        let mut agent = SwitchV2PAgent::new(1, SwitchV2PConfig::without_spillover());
        let mut p1 = data_packet(1, 2, 11, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(11)), false), &mut p1);
        let mut p2 = data_packet(3, 2, 33, 999, false);
        agent.on_packet(&mut fx.ctx(SwitchRole::Tor, Some(Pip(33)), false), &mut p2);
        assert_eq!(p2.opts.spillover, None);

        // No promotion: hot spine hits attach nothing.
        let mut spine = SwitchV2PAgent::new(16, SwitchV2PConfig::without_promotion());
        spine.cache.insert(Vip(2), Pip(200), Admission::All);
        let mut q1 = data_packet(1, 2, 11, 999, false);
        spine.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut q1);
        let mut q2 = data_packet(1, 2, 11, 999, false);
        spine.on_packet(&mut fx.ctx(SwitchRole::Spine, None, false), &mut q2);
        assert_eq!(q2.opts.promotion, None);

        // No learning packets: over thousands of packets the gateway ToR
        // stays quiet, where the same seed with learning on emits some.
        let emitted = |cfg| {
            let mut fx = Fixture::new();
            let mut gt = SwitchV2PAgent::new(16, cfg);
            (0..5_000)
                .map(|_| {
                    let mut r = data_packet(1, 2, 11, 22, true);
                    gt.on_packet(&mut fx.ctx(SwitchRole::GatewayTor, None, false), &mut r)
                        .emit
                        .len()
                })
                .sum::<usize>()
        };
        assert_eq!(emitted(SwitchV2PConfig::without_learning_packets()), 0);
        assert!(emitted(SwitchV2PConfig::default()) > 0);
    }
}
