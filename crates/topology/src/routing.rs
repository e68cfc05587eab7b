//! Structural ECMP up-down routing.
//!
//! Routing is decided from node locations and the topology's port runs,
//! not from an all-pairs next-hop matrix — FT16-400K has ~14 000 nodes and
//! a dense matrix would dwarf the caches being studied. A switch's egress
//! ports are runs of link ids in a documented order
//! ([`Topology::out_links`]: a ToR's uplinks by spine, a spine's core-group
//! uplinks and then its downlinks by rack, a core's downlinks by pod), and
//! a host's one port is computed from its place ([`Topology::attachment`]),
//! so a hop is a match on two node kinds and a multiply-add. The rules are
//! the standard FatTree up-down ones; among equal-cost choices the flow key
//! picks one deterministically ("Flows are balanced among multiple paths
//! using ECMP routing", §5).
//!
//! Switches are also routable destinations (invalidation packets are
//! addressed to a switch, §3.3), which adds a few down-then-up cases that
//! plain host-to-host routing never exercises.

use crate::fattree::FatTreeConfig;
use crate::graph::{LinkId, NodeId, NodeKind, Topology};

/// Which run of a switch's ports ([`Topology::out_links`]) holds what: a
/// ToR's or a spine's uplinks, a spine's downlinks, a core's downlinks.
const UP: usize = 0;
const SPINE_DOWN: usize = 1;
const CORE_DOWN: usize = 0;

/// A group of equal-cost links as `(first id, step, count)`, the shape of
/// a port run ([`crate::graph::Ports::span`]).
type Run = (u32, u32, u32);

/// ECMP router over a built FatTree: the two numbers of its shape that a
/// port run does not carry.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Cores per spine group.
    m: u16,
    /// The rack whose ToR a pod's gateways hang off.
    gateway_rack: u16,
}

impl Routing {
    /// The router for topologies built by `config.build()`. It reads ports
    /// off the topology each query is given, so it keeps nothing of `_topo`.
    pub fn new(config: &FatTreeConfig, _topo: &Topology) -> Self {
        Routing {
            m: config.core_group(),
            gateway_rack: config.gateway_rack(),
        }
    }

    /// The equal-cost egress links from `at` toward `dst` (empty iff
    /// `at == dst`), into a caller-owned buffer. Clears `out` first; a
    /// reused scratch `Vec` makes per-hop routing allocation-free after
    /// warm-up. The order of the links is part of the contract: ECMP picks
    /// by position.
    #[inline]
    pub fn candidates_into(&self, topo: &Topology, at: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        let (first, step, count) = self.group(topo, at, dst);
        out.extend((0..count).map(|i| LinkId(first + step * i)));
    }

    /// The equal-cost egress links from `at` toward `dst` as one run
    /// `(first id, step, count)`: member `i` is `first + step * i`, and
    /// a single port is a run of one (`count` 0 iff `at == dst`). Every
    /// group is a whole port run of `at` or one port of it.
    #[inline]
    fn group(&self, topo: &Topology, at: NodeId, dst: NodeId) -> Run {
        const EMPTY: Run = (0, 0, 0);
        let one = |l: LinkId| (l.0, 0, 1);
        if at == dst {
            return EMPTY;
        }
        let dst_kind = topo.kind(dst);
        let at_kind = topo.kind(at);
        let m = u32::from(self.m);
        match at_kind {
            NodeKind::Server { .. } | NodeKind::Gateway { .. } => {
                topo.attachment(at_kind).map_or(EMPTY, |(_, up)| one(up))
            }
            NodeKind::Tor { pod, .. } => match (dst_kind, topo.attachment(dst_kind)) {
                // A host directly attached below me: its uplink's twin.
                (_, Some((tor, up))) if tor == at => one(up.twin()),
                (NodeKind::Spine { pod: dp, idx }, _) if dp == pod => {
                    one(topo.out_links(at).port(UP, u32::from(idx)))
                }
                // Only the spine of group idx/m reaches that core.
                (NodeKind::Core { idx }, _) => one(topo.out_links(at).port(UP, u32::from(idx) / m)),
                // Anywhere else: up to any spine of the pod.
                _ => topo.out_links(at).span(UP),
            },
            NodeKind::Spine { pod, idx } => {
                let ports = topo.out_links(at);
                match dst_kind {
                    // Down into my pod: to the ToR, or to the host's ToR.
                    NodeKind::Server { pod: dp, rack, .. } | NodeKind::Tor { pod: dp, rack }
                        if dp == pod =>
                    {
                        one(ports.port(SPINE_DOWN, u32::from(rack)))
                    }
                    NodeKind::Gateway { pod: dp, .. } if dp == pod => {
                        one(ports.port(SPINE_DOWN, u32::from(self.gateway_rack)))
                    }
                    // A sibling spine: bounce through any ToR below.
                    NodeKind::Spine { pod: dp, .. } if dp == pod => ports.span(SPINE_DOWN),
                    // A core I connect to directly; otherwise bounce down.
                    NodeKind::Core { idx: c } if c / self.m == idx => {
                        one(ports.port(UP, u32::from(c) % m))
                    }
                    NodeKind::Core { .. } => ports.span(SPINE_DOWN),
                    // Another pod: up to my core group.
                    _ => ports.span(UP),
                }
            }
            NodeKind::Core { .. } => {
                let ports = topo.out_links(at);
                match dst_kind.pod() {
                    // Down to the dst pod through my group's spine there.
                    Some(p) => one(ports.port(CORE_DOWN, u32::from(p))),
                    // Core-to-core: descend into some pod and re-ascend.
                    // Rare (only mis-addressed control traffic); every
                    // pod's group spine is a candidate.
                    None => ports.span(CORE_DOWN),
                }
            }
        }
    }

    /// The ECMP next hop from `at` toward `dst` for a packet with flow key
    /// `key`, among the links where `usable` holds — the data plane's view
    /// after link failures; `None` for `usable` means every link is up, and
    /// skips the test. Unusable members are masked out of the group
    /// before hashing, so flows rehash onto the surviving ports; `None`
    /// when every candidate is down (the packet is unroutable) or
    /// `at == dst`. With every link up the pick is computed from the
    /// group's run and `scratch` is left alone; otherwise `scratch` is the
    /// caller's candidate buffer, so a hop allocates nothing once it has
    /// grown to the widest group.
    #[inline]
    pub fn next_link(
        &self,
        topo: &Topology,
        at: NodeId,
        dst: NodeId,
        key: u64,
        usable: Option<&dyn Fn(LinkId) -> bool>,
        scratch: &mut Vec<LinkId>,
    ) -> Option<LinkId> {
        let Some(usable) = usable else {
            return match self.group(topo, at, dst) {
                (_, _, 0) => None,
                (only, _, 1) => Some(LinkId(only)),
                (first, step, count) => Some(LinkId(
                    first + step * (ecmp_hash(at, key) % u64::from(count)) as u32,
                )),
            };
        };
        self.candidates_into(topo, at, dst, scratch);
        scratch.retain(|&l| usable(l));
        ecmp_pick(at, key, scratch)
    }

    /// The full node path from `from` to `to` under flow key `key`,
    /// inclusive of both endpoints. Panics on a routing loop (> 64 hops).
    pub fn path(&self, topo: &Topology, from: NodeId, to: NodeId, key: u64) -> Vec<NodeId> {
        let mut path = vec![from];
        let (mut at, mut scratch) = (from, Vec::new());
        while at != to {
            let link = self
                .next_link(topo, at, to, key, None, &mut scratch)
                .expect("no route");
            at = topo.link_to(link);
            path.push(at);
            assert!(path.len() <= 64, "routing loop: {path:?}");
        }
        path
    }

    /// Number of switches on the path (packet stretch metric, §5.3).
    pub fn switch_hops(&self, topo: &Topology, from: NodeId, to: NodeId, key: u64) -> usize {
        self.path(topo, from, to, key)
            .iter()
            .filter(|&&n| topo.kind(n).is_switch())
            .count()
    }
}

/// The member of `group` the flow key selects at switch `at` (`None` for
/// an empty group). A one-member group is its member: any hash picks it.
#[inline]
fn ecmp_pick(at: NodeId, key: u64, group: &[LinkId]) -> Option<LinkId> {
    match *group {
        [] => None,
        [only] => Some(only),
        _ => Some(group[(ecmp_hash(at, key) % group.len() as u64) as usize]),
    }
}

/// The flow key's ECMP hash at switch `at`; a group of `n` members picks
/// member `hash % n`.
#[inline]
fn ecmp_hash(at: NodeId, key: u64) -> u64 {
    // Mix the switch id into the hash, as real ASICs seed their ECMP
    // hash per switch — otherwise the same low bits would pick
    // correlated members at every layer and only a fraction of the
    // core layer would ever be used.
    let mut h = key ^ (at.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// The router as it was before port runs: every rule resolves its next hop
/// through `Topology::link_between`, a scan of the sender's ports. Kept as
/// the test oracle — the runs must yield the same links in the same order.
#[cfg(test)]
mod oracle {
    use sv2p_simcore::FxHashMap;

    use super::*;

    /// Candidate rules answered through `Topology::link_between`.
    #[derive(Debug, Clone)]
    pub struct RuleRouting {
        /// ToR of each (pod, rack).
        tor: FxHashMap<(u16, u16), NodeId>,
        /// Spines of each pod, by index.
        spines: Vec<Vec<NodeId>>,
        /// Core switches by index.
        cores: Vec<NodeId>,
        /// Cores per spine group.
        m: u16,
        racks_per_pod: u16,
    }

    impl RuleRouting {
        /// Builds the router for `topo` produced by `config.build()`.
        pub fn new(config: &FatTreeConfig, topo: &Topology) -> Self {
            let mut tor = FxHashMap::default();
            let mut spines = vec![Vec::new(); config.pods as usize];
            let mut cores = vec![NodeId(0); config.cores as usize];
            for n in topo.nodes() {
                match n.kind {
                    NodeKind::Tor { pod, rack } => {
                        tor.insert((pod, rack), n.id);
                    }
                    NodeKind::Spine { pod, idx } => {
                        let v = &mut spines[pod as usize];
                        if v.len() <= idx as usize {
                            v.resize(idx as usize + 1, n.id);
                        }
                        v[idx as usize] = n.id;
                    }
                    NodeKind::Core { idx } => cores[idx as usize] = n.id,
                    _ => {}
                }
            }
            RuleRouting {
                tor,
                spines,
                cores,
                m: config.core_group(),
                racks_per_pod: config.racks_per_pod,
            }
        }

        /// The ToR a host (server or gateway) is attached to.
        pub fn tor_of(&self, topo: &Topology, host: NodeId) -> NodeId {
            match topo.kind(host) {
                NodeKind::Server { pod, rack, .. } => self.tor[&(pod, rack)],
                NodeKind::Gateway { pod, .. } => self.tor[&(pod, self.racks_per_pod - 1)],
                k => panic!("tor_of on non-host {k:?}"),
            }
        }

        /// The equal-cost egress links from `at` toward `dst`, in ECMP order.
        pub fn candidates_into(
            &self,
            topo: &Topology,
            at: NodeId,
            dst: NodeId,
            out: &mut Vec<LinkId>,
        ) {
            out.clear();
            if at == dst {
                return;
            }
            let at_kind = topo.kind(at);
            let dst_kind = topo.kind(dst);
            match at_kind {
                NodeKind::Server { .. } | NodeKind::Gateway { .. } => {
                    let tor = self.tor_of(topo, at);
                    out.push(topo.link_between(at, tor).expect("host uplink"));
                }
                NodeKind::Tor { pod, rack } => {
                    // Directly attached host?
                    match dst_kind {
                        NodeKind::Server {
                            pod: dp, rack: dr, ..
                        } if dp == pod && dr == rack => {
                            out.push(topo.link_between(at, dst).expect("rack downlink"));
                            return;
                        }
                        NodeKind::Gateway { pod: dp, .. }
                            if dp == pod && rack == self.racks_per_pod - 1 =>
                        {
                            out.push(topo.link_between(at, dst).expect("gateway downlink"));
                            return;
                        }
                        NodeKind::Spine { pod: dp, .. } if dp == pod => {
                            out.push(topo.link_between(at, dst).expect("pod spine uplink"));
                            return;
                        }
                        NodeKind::Core { idx } => {
                            // Only the spine of group idx/m reaches that core.
                            let sp = self.spines[pod as usize][(idx / self.m) as usize];
                            out.push(topo.link_between(at, sp).expect("spine uplink"));
                            return;
                        }
                        _ => {}
                    }
                    // Anywhere else: up to any spine of the pod.
                    out.extend(
                        self.spines[pod as usize]
                            .iter()
                            .map(|&sp| topo.link_between(at, sp).expect("spine uplink")),
                    );
                }
                NodeKind::Spine { pod, idx } => {
                    match dst_kind {
                        // Down into my pod.
                        NodeKind::Server {
                            pod: dp, rack: dr, ..
                        } if dp == pod => {
                            let tor = self.tor[&(dp, dr)];
                            out.push(topo.link_between(at, tor).expect("tor downlink"));
                        }
                        NodeKind::Gateway { pod: dp, .. } if dp == pod => {
                            let tor = self.tor[&(dp, self.racks_per_pod - 1)];
                            out.push(topo.link_between(at, tor).expect("tor downlink"));
                        }
                        NodeKind::Tor { pod: dp, rack: dr } if dp == pod => {
                            out.push(
                                topo.link_between(at, self.tor[&(dp, dr)])
                                    .expect("tor link"),
                            );
                        }
                        // A sibling spine: bounce through any ToR below.
                        NodeKind::Spine { pod: dp, .. } if dp == pod => {
                            out.extend((0..self.racks_per_pod).map(|r| {
                                topo.link_between(at, self.tor[&(pod, r)])
                                    .expect("tor link")
                            }))
                        }
                        // A core I connect to directly; otherwise bounce down.
                        NodeKind::Core { idx: c } => {
                            if c / self.m == idx {
                                out.push(
                                    topo.link_between(at, self.cores[c as usize])
                                        .expect("core uplink"),
                                );
                            } else {
                                out.extend((0..self.racks_per_pod).map(|r| {
                                    topo.link_between(at, self.tor[&(pod, r)])
                                        .expect("tor link")
                                }));
                            }
                        }
                        // Another pod: up to my core group.
                        _ => out.extend((0..self.m).map(|j| {
                            let c = self.cores[(idx * self.m + j) as usize];
                            topo.link_between(at, c).expect("core uplink")
                        })),
                    }
                }
                NodeKind::Core { idx } => {
                    // Down to the dst pod through my group's spine there.
                    let group = idx / self.m;
                    match dst_kind.pod() {
                        Some(p) => {
                            let sp = self.spines[p as usize][group as usize];
                            out.push(topo.link_between(at, sp).expect("spine downlink"));
                        }
                        None => {
                            // Core-to-core: descend into some pod and re-ascend.
                            // Rare (only mis-addressed control traffic); pick every
                            // pod's group spine as candidates.
                            out.extend(self.spines.iter().map(|pod_spines| {
                                topo.link_between(at, pod_spines[group as usize])
                                    .expect("spine downlink")
                            }));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeConfig;
    use crate::graph::oracle::arb_config;

    fn setup() -> (FatTreeConfig, Topology, Routing) {
        let cfg = FatTreeConfig::ft8_10k();
        let topo = cfg.build();
        let routing = Routing::new(&cfg, &topo);
        (cfg, topo, routing)
    }

    fn server(topo: &Topology, pod: u16, rack: u16, slot: u16) -> NodeId {
        topo.nodes()
            .find(|n| n.kind == NodeKind::Server { pod, rack, slot })
            .unwrap()
            .id
    }

    #[test]
    fn intra_rack_path_is_one_switch() {
        let (_, topo, r) = setup();
        let a = server(&topo, 0, 0, 0);
        let b = server(&topo, 0, 0, 1);
        assert_eq!(r.switch_hops(&topo, a, b, 0), 1);
        let p = r.path(&topo, a, b, 0);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn intra_pod_path_is_three_switches() {
        let (_, topo, r) = setup();
        let a = server(&topo, 0, 0, 0);
        let b = server(&topo, 0, 1, 0);
        assert_eq!(r.switch_hops(&topo, a, b, 7), 3);
    }

    #[test]
    fn inter_pod_path_is_five_switches() {
        let (_, topo, r) = setup();
        let a = server(&topo, 0, 0, 0);
        let b = server(&topo, 3, 2, 1);
        assert_eq!(r.switch_hops(&topo, a, b, 42), 5);
    }

    #[test]
    fn ecmp_spreads_and_is_deterministic() {
        let (_, topo, r) = setup();
        let a = server(&topo, 0, 0, 0);
        let b = server(&topo, 5, 1, 0);
        let p1 = r.path(&topo, a, b, 1);
        let p1b = r.path(&topo, a, b, 1);
        assert_eq!(p1, p1b, "same key must give the same path");
        // Different keys must reach different core switches eventually.
        let mut distinct_cores = std::collections::HashSet::new();
        for key in 0..64u64 {
            let p = r.path(&topo, a, b, key);
            for n in p {
                if let NodeKind::Core { idx } = topo.kind(n) {
                    distinct_cores.insert(idx);
                }
            }
        }
        assert!(
            distinct_cores.len() >= 8,
            "ECMP used only {distinct_cores:?}"
        );
    }

    #[test]
    fn all_pairs_route_without_loops() {
        // Sampled all-kinds reachability: every node can reach every other.
        let (_, topo, r) = setup();
        let sample: Vec<NodeId> = topo.nodes().step_by(17).map(|n| n.id).collect();
        for &a in &sample {
            for &b in &sample {
                if a != b {
                    let p = r.path(&topo, a, b, 13);
                    assert_eq!(*p.first().unwrap(), a);
                    assert_eq!(*p.last().unwrap(), b);
                }
            }
        }
    }

    #[test]
    fn switch_addressed_routing_works() {
        // Invalidation packets travel host -> switch and switch -> switch.
        let (_, topo, r) = setup();
        let host = server(&topo, 1, 0, 0);
        for sw in topo.switches().map(|n| n.id).take(20) {
            let p = r.path(&topo, host, sw, 3);
            assert_eq!(*p.last().unwrap(), sw);
        }
        // ToR to a sibling spine's core and spine-to-spine bounces.
        let tor = topo
            .nodes()
            .find(|n| n.kind == NodeKind::Tor { pod: 0, rack: 0 })
            .unwrap()
            .id;
        let spine_far = topo
            .nodes()
            .find(|n| n.kind == NodeKind::Spine { pod: 4, idx: 2 })
            .unwrap()
            .id;
        let p = r.path(&topo, tor, spine_far, 9);
        assert_eq!(*p.last().unwrap(), spine_far);
    }

    #[test]
    fn gateway_paths_terminate_at_gateway() {
        let (_, topo, r) = setup();
        let a = server(&topo, 1, 0, 0);
        for gw in topo.gateways().map(|n| n.id) {
            let p = r.path(&topo, a, gw, 11);
            assert_eq!(*p.last().unwrap(), gw);
        }
    }

    #[test]
    fn filtered_next_link_falls_back_to_surviving_ports() {
        let (_, topo, r) = setup();
        let a = server(&topo, 0, 0, 0);
        let b = server(&topo, 5, 1, 0);
        let (tor, _) = topo.attachment(topo.kind(a)).unwrap();
        // From the ToR every pod spine is a candidate; fail the one the
        // hash picks and the flow must rehash onto a different uplink.
        let s = &mut Vec::new();
        let picked = r
            .next_link(&topo, tor, b, 99, None, s)
            .expect("route exists");
        let alt = r
            .next_link(&topo, tor, b, 99, Some(&|l| l != picked), s)
            .expect("alternate port exists");
        assert_ne!(alt, picked);
        // Same key + same mask is deterministic.
        assert_eq!(
            r.next_link(&topo, tor, b, 99, Some(&|l| l != picked), s),
            Some(alt)
        );
        // Masking everything makes the destination unroutable.
        assert_eq!(r.next_link(&topo, tor, b, 99, Some(&|_| false), s), None);
        // A host's single uplink down: unroutable at the source.
        assert_eq!(r.next_link(&topo, a, b, 1, Some(&|_| false), s), None);
    }

    #[test]
    fn paths_in_scaled_topologies() {
        for pods in [1u16, 2, 32] {
            let cfg = FatTreeConfig::scaled_ft8(pods);
            let topo = cfg.build();
            let r = Routing::new(&cfg, &topo);
            let servers: Vec<NodeId> = topo.servers().map(|n| n.id).collect();
            let a = servers[0];
            let b = *servers.last().unwrap();
            let p = r.path(&topo, a, b, 5);
            assert_eq!(*p.last().unwrap(), b, "pods={pods}");
        }
    }

    /// Every ordered node pair: the port runs and the `link_between` rules
    /// name the same candidates in the same order, a host's attachment is
    /// the rules' ToR, and the filtered ECMP pick agrees under a random
    /// link-down mask.
    fn assert_runs_match_rules(cfg: &FatTreeConfig) {
        let topo = cfg.build();
        let runs = Routing::new(cfg, &topo);
        let rules = oracle::RuleRouting::new(cfg, &topo);
        let mut rng = sv2p_simcore::SimRng::new(7);
        let up: Vec<bool> = topo.links().map(|_| rng.chance(0.7)).collect();
        let usable = |l: LinkId| up[l.0 as usize];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for at in topo.nodes().map(|n| n.id) {
            if let Some((tor, _)) = topo.attachment(topo.kind(at)) {
                assert_eq!(tor, rules.tor_of(&topo, at));
            }
            for dst in topo.nodes().map(|n| n.id) {
                rules.candidates_into(&topo, at, dst, &mut want);
                runs.candidates_into(&topo, at, dst, &mut got);
                assert_eq!(got, want, "{:?} -> {:?}", topo.kind(at), topo.kind(dst));
                let key = rng.next_u64_raw();
                want.retain(|&l| usable(l));
                assert_eq!(
                    runs.next_link(&topo, at, dst, key, Some(&usable), &mut got),
                    ecmp_pick(at, key, &want)
                );
            }
        }
    }

    #[test]
    fn runs_match_link_between_rules_on_scaled_ft8() {
        assert_runs_match_rules(&FatTreeConfig::scaled_ft8(2));
    }

    #[test]
    fn runs_match_link_between_rules_on_a_lopsided_fabric() {
        // Gateways in one pod only, more racks than spines per pod, and a
        // core group wider than one: no two run strides coincide.
        let cfg = FatTreeConfig {
            pods: 3,
            racks_per_pod: 5,
            servers_per_rack: 2,
            spines_per_pod: 2,
            cores: 6,
            gateway_pods: vec![1],
            gateways_per_pod: vec![3],
            ..FatTreeConfig::ft8_10k()
        };
        assert_runs_match_rules(&cfg);
    }

    /// Every sender of `cfg` (every node, or its switches alone) toward
    /// every node, under keys drawn from `seed`: the pick with every link
    /// up (no usable test) is the ECMP pick over the group
    /// `candidates_into` writes and the pick with a test that passes every
    /// link, it leaves the scratch buffer as it found it, and a one-member
    /// group's pick is its member, whatever the switch and key.
    fn assert_run_pick_is_the_group_pick(cfg: &FatTreeConfig, seed: u64, hosts_too: bool) {
        let topo = cfg.build();
        let r = Routing::new(cfg, &topo);
        let mut rng = sv2p_simcore::SimRng::new(seed);
        let (mut group, mut tested) = (Vec::new(), Vec::new());
        let mut untouched = vec![LinkId(u32::MAX)];
        let mut singles = 0;
        for at in topo.nodes().filter(|n| hosts_too || n.kind.is_switch()) {
            let at = at.id;
            for dst in topo.nodes().map(|n| n.id) {
                let key = rng.next_u64_raw();
                let pick = r.next_link(&topo, at, dst, key, None, &mut untouched);
                r.candidates_into(&topo, at, dst, &mut group);
                let want = r.next_link(&topo, at, dst, key, Some(&|_| true), &mut tested);
                let pair = (topo.kind(at), topo.kind(dst));
                assert_eq!(pick, ecmp_pick(at, key, &group), "{pair:?}");
                assert_eq!(pick, want, "{pair:?}");
                if let [only] = *group {
                    assert_eq!(pick, Some(only));
                    singles += 1;
                }
            }
        }
        assert_eq!(
            untouched,
            [LinkId(u32::MAX)],
            "the all-up pick wrote its scratch"
        );
        assert_eq!(untouched.capacity(), 1, "the all-up pick grew its scratch");
        assert!(singles > 0, "no one-member group on {cfg:?}");
    }

    /// Over every pair of FT8 and every switch's of FT16, so a fixed key
    /// stream rather than a proptest: `PROPTEST_CASES` would multiply a
    /// pass over FT16's 8.4 M pairs.
    #[test]
    fn the_all_links_up_pick_is_the_filtered_pick_on_ft8_and_ft16() {
        assert_run_pick_is_the_group_pick(&FatTreeConfig::ft8_10k(), 8, true);
        assert_run_pick_is_the_group_pick(&FatTreeConfig::ft16_400k(), 16, false);
    }

    proptest::proptest! {
        #[test]
        fn a_one_member_group_picks_its_member(
            at in proptest::prelude::any::<u32>(),
            key in proptest::prelude::any::<u64>(),
            link in proptest::prelude::any::<u32>(),
        ) {
            proptest::prop_assert_eq!(ecmp_pick(NodeId(at), key, &[LinkId(link)]), Some(LinkId(link)));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any valid shape: shuffled gateway pods, up to 12 gateways per
        /// pod, core groups wider than one.
        #[test]
        fn runs_match_link_between_rules_on_random_fabrics(cfg in arb_config()) {
            assert_runs_match_rules(&cfg);
        }

        /// The same shapes, every ordered pair, under random keys.
        #[test]
        fn the_all_links_up_pick_is_the_group_pick_on_random_fabrics(
            cfg in arb_config(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            assert_run_pick_is_the_group_pick(&cfg, seed, true);
        }
    }
}
