//! Trace inspection: parsing trace JSONL back into [`TraceEvent`]s,
//! filtering, and hop-by-hop path reconstruction.
//!
//! This is the library behind `sv2p trace`, kept separate so integration
//! tests can drive reconstruction without spawning a process.

use std::collections::HashMap;

use crate::event::{Cause, EventKind, Layer, Op, TraceEvent};
use crate::json::{parse_flat, JsonValue};

/// Parses one trace line; `None` for malformed or foreign lines.
pub fn parse_event(line: &str) -> Option<TraceEvent> {
    let m = parse_flat(line)?;
    let get_u64 = |k: &str| m.get(k).and_then(JsonValue::as_u64);
    let get_bool = |k: &str| m.get(k).and_then(JsonValue::as_bool);
    let get_str = |k: &str| m.get(k).and_then(JsonValue::as_str);
    let kind = EventKind::parse(get_str("kind")?)?;
    let mut ev = TraceEvent::new(get_u64("t_ns")?, kind);
    ev.flow = get_u64("flow");
    ev.pkt = get_u64("pkt");
    ev.node = get_u64("node").map(|v| v as u32);
    ev.layer = get_str("layer").and_then(Layer::parse);
    ev.hit = get_bool("hit");
    ev.resolved = get_bool("resolved");
    ev.vip = get_u64("vip").map(|v| v as u32);
    ev.pip = get_u64("pip").map(|v| v as u32);
    ev.op = get_str("op").and_then(Op::parse);
    ev.cause = get_str("cause").and_then(Cause::parse);
    ev.hops = get_u64("hops").map(|v| v as u16);
    ev.latency_ns = get_u64("latency_ns");
    Some(ev)
}

/// Parses a whole trace file, silently skipping unparseable lines.
pub fn parse_events(text: &str) -> Vec<TraceEvent> {
    text.lines().filter_map(parse_event).collect()
}

/// Per-kind event counts in wire order (stable output).
pub fn kind_counts(events: &[TraceEvent]) -> Vec<(&'static str, usize)> {
    let mut by_kind: HashMap<EventKind, usize> = HashMap::new();
    for e in events {
        *by_kind.entry(e.kind).or_insert(0) += 1;
    }
    EventKind::ALL
        .iter()
        .filter_map(|k| by_kind.get(k).map(|&n| (k.as_str(), n)))
        .collect()
}

/// One hop of a reconstructed packet path.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Virtual time of the hop, nanoseconds.
    pub t_ns: u64,
    /// Node the event happened at (`None` for node-less drop records).
    pub node: Option<u32>,
    /// The underlying event.
    pub event: TraceEvent,
    /// Nanoseconds since the previous hop (0 for the first).
    pub dt_ns: u64,
}

/// A packet's reconstructed journey.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Flow the packet belongs to.
    pub flow: u64,
    /// Packet id.
    pub pkt: u64,
    /// Ordered hops, each with latency since the previous.
    pub hops: Vec<Hop>,
    /// True if the packet detoured through a translation gateway.
    pub visited_gateway: bool,
    /// The switch whose cache resolved the packet, if any.
    pub hit_node: Option<u32>,
    /// True if the packet reached its destination VM.
    pub delivered: bool,
    /// Send-to-delivery latency, when both endpoints are in the trace.
    pub total_latency_ns: Option<u64>,
}

/// Reconstructs the hop-by-hop path of one packet of `flow`.
///
/// With `pkt == None` the flow's first traced packet (lowest packet id
/// with a `send` event, else lowest seen) is chosen. Events are replayed
/// in virtual-time order; the tracer's ring already stores them
/// chronologically, and parsing preserves file order, so no re-sort can
/// reorder same-instant events.
pub fn reconstruct_path(events: &[TraceEvent], flow: u64, pkt: Option<u64>) -> Option<PathReport> {
    let flow_events = || events.iter().filter(|e| e.flow == Some(flow));
    let pkt_id = match pkt {
        Some(p) => p,
        None => flow_events()
            .filter(|e| e.kind == EventKind::PacketSent)
            .filter_map(|e| e.pkt)
            .min()
            .or_else(|| flow_events().filter_map(|e| e.pkt).min())?,
    };
    let path: Vec<&TraceEvent> = flow_events().filter(|e| e.pkt == Some(pkt_id)).collect();
    if path.is_empty() {
        return None;
    }

    let mut hops = Vec::with_capacity(path.len());
    let mut prev_t = None;
    let mut visited_gateway = false;
    let mut hit_node = None;
    let mut delivered = false;
    let mut sent_at = None;
    let mut delivered_at = None;
    for e in &path {
        let dt = prev_t.map_or(0, |p| e.t_ns.saturating_sub(p));
        prev_t = Some(e.t_ns);
        match e.kind {
            EventKind::PacketSent => sent_at = sent_at.or(Some(e.t_ns)),
            EventKind::GatewayIngress => visited_gateway = true,
            EventKind::CacheLookup if e.hit == Some(true) => hit_node = hit_node.or(e.node),
            EventKind::Delivery => {
                delivered = true;
                delivered_at = delivered_at.or(Some(e.t_ns));
            }
            _ => {}
        }
        hops.push(Hop {
            t_ns: e.t_ns,
            node: e.node,
            event: (*e).clone(),
            dt_ns: dt,
        });
    }
    let total_latency_ns = match (sent_at, delivered_at) {
        (Some(s), Some(d)) => Some(d.saturating_sub(s)),
        _ => None,
    };
    Some(PathReport {
        flow,
        pkt: pkt_id,
        hops,
        visited_gateway,
        hit_node,
        delivered,
        total_latency_ns,
    })
}

/// Renders a [`PathReport`] as the human-readable listing `sv2p trace
/// --path` prints.
pub fn format_path(r: &PathReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flow {} pkt {}: {} events, gateway_detour={}, hit_switch={}, delivered={}\n",
        r.flow,
        r.pkt,
        r.hops.len(),
        r.visited_gateway,
        r.hit_node
            .map_or("none".to_string(), |n| format!("node {n}")),
        r.delivered,
    ));
    if let Some(lat) = r.total_latency_ns {
        out.push_str(&format!("total send->delivery latency: {lat} ns\n"));
    }
    for h in &r.hops {
        let e = &h.event;
        let mut extra = String::new();
        if let Some(l) = e.layer {
            extra.push_str(&format!(" layer={}", l.as_str()));
        }
        if let Some(hit) = e.hit {
            extra.push_str(&format!(" hit={hit}"));
        }
        if let Some(op) = e.op {
            extra.push_str(&format!(" op={}", op.as_str()));
        }
        if let Some(r) = e.resolved {
            extra.push_str(&format!(" resolved={r}"));
        }
        if let Some(c) = e.cause {
            extra.push_str(&format!(" cause={}", c.as_str()));
        }
        if let Some(hops) = e.hops {
            extra.push_str(&format!(" switch_hops={hops}"));
        }
        out.push_str(&format!(
            "  t={:>12} ns  (+{:>9} ns)  {:<16} {}{}\n",
            h.t_ns,
            h.dt_ns,
            e.kind.as_str(),
            h.node.map_or("-".to_string(), |n| format!("node {n}")),
            extra,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<TraceEvent> {
        let mut v = Vec::new();
        let mut e = TraceEvent::new(0, EventKind::PacketSent)
            .packet(7, 100)
            .at_node(0);
        e.resolved = Some(false);
        v.push(e);
        v.push(
            TraceEvent::new(10, EventKind::SwitchIngress)
                .packet(7, 100)
                .at_node(1),
        );
        let mut e = TraceEvent::new(10, EventKind::CacheLookup)
            .packet(7, 100)
            .at_node(1);
        e.hit = Some(false);
        v.push(e);
        v.push(
            TraceEvent::new(30, EventKind::GatewayIngress)
                .packet(7, 100)
                .at_node(9),
        );
        v.push(
            TraceEvent::new(70, EventKind::GatewayDone)
                .packet(7, 100)
                .at_node(9),
        );
        v.push(
            TraceEvent::new(90, EventKind::SwitchIngress)
                .packet(7, 100)
                .at_node(2),
        );
        let mut e = TraceEvent::new(90, EventKind::CacheLookup)
            .packet(7, 100)
            .at_node(2);
        e.hit = Some(true);
        v.push(e);
        let mut e = TraceEvent::new(120, EventKind::Delivery)
            .packet(7, 100)
            .at_node(5);
        e.hops = Some(4);
        e.latency_ns = Some(120);
        v.push(e);
        // Another flow's packet, to be filtered out.
        v.push(
            TraceEvent::new(15, EventKind::SwitchIngress)
                .packet(8, 200)
                .at_node(1),
        );
        v
    }

    #[test]
    fn reconstruction_orders_hops_and_finds_landmarks() {
        let events = trace();
        let r = reconstruct_path(&events, 7, None).expect("path");
        assert_eq!(r.pkt, 100);
        assert_eq!(r.hops.len(), 8);
        assert!(r.visited_gateway);
        assert_eq!(r.hit_node, Some(2));
        assert!(r.delivered);
        assert_eq!(r.total_latency_ns, Some(120));
        // Per-hop latency: gateway processing shows up as the 70-30=40ns gap.
        let gw_done = r
            .hops
            .iter()
            .find(|h| h.event.kind == EventKind::GatewayDone)
            .unwrap();
        assert_eq!(gw_done.dt_ns, 40);
        let listing = format_path(&r);
        assert!(listing.contains("gateway_detour=true"), "{listing}");
        assert!(listing.contains("hit_switch=node 2"), "{listing}");
    }

    #[test]
    fn unknown_flow_yields_none() {
        assert!(reconstruct_path(&trace(), 99, None).is_none());
        assert!(reconstruct_path(&trace(), 7, Some(999)).is_none());
    }

    /// `to_json` and `parse_event` are inverses over every name of every
    /// wire vocabulary, so a name cannot exist on the writing side only.
    #[test]
    fn events_round_trip_through_jsonl() {
        let mut events = trace();
        events.extend(EventKind::ALL.map(|k| TraceEvent::new(1, k)));
        events.extend(Layer::ALL.map(|l| TraceEvent {
            layer: Some(l),
            ..TraceEvent::new(2, EventKind::CacheLookup)
        }));
        events.extend(Op::ALL.map(|op| TraceEvent {
            op: Some(op),
            ..TraceEvent::new(3, EventKind::CacheOp)
        }));
        events.extend(Cause::ALL.map(|c| TraceEvent {
            cause: Some(c),
            ..TraceEvent::new(4, EventKind::Drop)
        }));
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let back = parse_events(&text);
        assert_eq!(back, events);
    }

    #[test]
    fn kind_counts_are_stable_order() {
        let counts = kind_counts(&trace());
        let names: Vec<&str> = counts.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "send",
                "switch_ingress",
                "cache_lookup",
                "gateway_ingress",
                "gateway_done",
                "delivery"
            ]
        );
        assert_eq!(counts[1].1, 3, "three switch_ingress events");
    }
}
