//! VM placement: assigning virtual addresses to physical servers.
//!
//! The paper places VMs uniformly: "We uniformly draw sources and
//! destinations from a pool of 10240 VMs, with 80 VMs on each server"
//! (FT8-10K) and 32 containers per server for Alibaba on FT16-400K. The
//! placement fills servers round-robin so that VIP *i* lives on server
//! `i / vms_per_server` — uniform draws over VIPs then spread uniformly over
//! servers and racks.
//!
//! The placement is also the simulator's V2P ground truth (§3.3): where a
//! VM lives *is* what its VIP resolves to, so the gateway translates with
//! [`Placement::lookup`] and a migration is one [`Placement::relocate`].
//! A second table holding the same pairs could only ever agree with it.
//!
//! Because the placement is uniform it is stored as a rule plus its
//! exceptions: each server's `(PIP, node)` once, and a hash map of the VMs
//! a migration moved away from home. Its size follows the fabric and the
//! migrations, never the VM count. The two-column table it replaced (8 B
//! per VM) is kept below as a `#[cfg(test)]` oracle, and a property drives
//! both through random migrations.

use sv2p_packet::{Pip, Vip};
use sv2p_simcore::FxHashMap;
use sv2p_topology::{NodeId, Topology};

/// Where every VM lives, and so what every VIP resolves to.
///
/// VM *i* is `Vip(VIP_BASE + i)` by construction, so the VIP is not stored:
/// [`Placement::vip_of`] and [`Placement::index_of`] are arithmetic. Nor is
/// its home: VM *i* starts on host `i / vms_per_server`, so the placement
/// holds each host's `(PIP, node)` once and, beside them, only the VMs a
/// migration moved away. At million-VM scale that is 8 bytes per *server*;
/// nothing in it grows with the VM count.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Each host's `(PIP, node)`, in placement order.
    hosts: Vec<(Pip, NodeId)>,
    /// VMs per host: VM *i*'s home is `hosts[i / vms_per_server]`.
    vms_per_server: u32,
    /// Where each VM that is away from its home lives now.
    moved: FxHashMap<u32, (Pip, NodeId)>,
}

/// Base of the VIP number space (dotted "20.0.0.0"); VM *i* is `VIP_BASE + i`.
pub const VIP_BASE: u32 = 0x1400_0000;

impl Placement {
    /// Places `vms_per_server` VMs on every server of `topo`, in server
    /// iteration order.
    pub fn uniform(topo: &Topology, vms_per_server: u32) -> Self {
        Self::from_hosts(
            topo.servers().map(|s| (s.pip, s.id)).collect(),
            vms_per_server,
        )
    }

    /// Places `vms_per_server` VMs on each of `hosts`, in order: VM *i*
    /// lives on `hosts[i / vms_per_server]`.
    pub fn from_hosts(hosts: Vec<(Pip, NodeId)>, vms_per_server: u32) -> Self {
        assert!(vms_per_server > 0);
        Placement {
            hosts,
            vms_per_server,
            moved: FxHashMap::default(),
        }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.hosts.len() * self.vms_per_server as usize
    }

    /// True if no VMs are placed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// VM index of a VIP, if it was placed.
    pub fn index_of(&self, vip: Vip) -> Option<usize> {
        let i = vip.0.checked_sub(VIP_BASE)? as usize;
        (i < self.len()).then_some(i)
    }

    /// VIP of VM `i`.
    pub fn vip_of(&self, i: usize) -> Vip {
        assert!(i < self.len(), "VM {i} of {}", self.len());
        Vip(VIP_BASE + i as u32)
    }

    /// The `(PIP, node)` VM `i` lives on: where it moved, or else its home.
    /// One host lookup for a caller that needs both halves.
    #[inline]
    pub fn host(&self, i: usize) -> (Pip, NodeId) {
        if !self.moved.is_empty() {
            if let Some(&at) = self.moved.get(&(i as u32)) {
                return at;
            }
        }
        self.hosts[i / self.vms_per_server as usize]
    }

    /// The PIP `vip` resolves to now — the gateway's translation. `None`
    /// for a VIP that was never placed, which the gateway drops.
    #[inline]
    pub fn lookup(&self, vip: Vip) -> Option<Pip> {
        self.index_of(vip).map(|i| self.host(i).0)
    }

    /// Current PIP of VM `i`.
    pub fn pip_of(&self, i: usize) -> Pip {
        self.host(i).0
    }

    /// Host node of VM `i`.
    pub fn node_of(&self, i: usize) -> NodeId {
        self.host(i).1
    }

    /// A [`crate::MappingDb`] holding the full placement, one `Install` per
    /// VM. The simulator never builds one (it reads the placement); this is
    /// the fixture of the `MappingDb` kernels and of the property test
    /// certifying that the two answer alike.
    pub fn seed_db(&self) -> crate::MappingDb {
        let mut db = crate::MappingDb::new();
        for i in 0..self.len() {
            db.apply(crate::MappingOp::Install {
                vip: self.vip_of(i),
                pip: self.pip_of(i),
            });
        }
        db
    }

    /// Moves VM `i` to a new host: the migration's one write, after which
    /// [`Self::lookup`] answers the new PIP. A VM moved back home leaves
    /// the exceptions.
    pub fn relocate(&mut self, i: usize, node: NodeId, pip: Pip) {
        if self.hosts[i / self.vms_per_server as usize] == (pip, node) {
            self.moved.remove(&(i as u32));
        } else {
            self.moved.insert(i as u32, (pip, node));
        }
    }

    /// Collects the VM indices hosted on `node` into `out` (cleared first),
    /// so scan-heavy callers can reuse one buffer instead of allocating per
    /// call.
    pub fn vms_on_into(&self, node: NodeId, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.len()).filter(|&i| self.node_of(i) == node));
    }

    /// All VM indices hosted on `node` (allocating convenience wrapper over
    /// [`Self::vms_on_into`]).
    pub fn vms_on(&self, node: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        self.vms_on_into(node, &mut out);
        out
    }

    /// Resident bytes of the host column and the moved VMs' table (one
    /// control byte per bucket beside each entry): the simulator's whole
    /// V2P state (the benchmark's `vnet.v2p_state_mb`).
    pub fn resident_bytes(&self) -> usize {
        self.hosts.capacity() * std::mem::size_of::<(Pip, NodeId)>()
            + self.moved.capacity() * (std::mem::size_of::<(u32, (Pip, NodeId))>() + 1)
    }
}

/// The two-column placement this module had before it became a rule plus
/// exceptions, kept as a test oracle: one `(PIP, node)` per VM.
#[cfg(test)]
mod oracle {
    use super::*;

    pub struct Columns {
        pub pips: Vec<Pip>,
        pub nodes: Vec<NodeId>,
    }

    impl Columns {
        pub fn uniform(topo: &Topology, vms_per_server: u32) -> Self {
            let (pips, nodes) = topo
                .servers()
                .flat_map(|s| std::iter::repeat_n((s.pip, s.id), vms_per_server as usize))
                .unzip();
            Columns { pips, nodes }
        }

        pub fn index_of(&self, vip: Vip) -> Option<usize> {
            let i = vip.0.checked_sub(VIP_BASE)? as usize;
            (i < self.pips.len()).then_some(i)
        }

        pub fn lookup(&self, vip: Vip) -> Option<Pip> {
            self.index_of(vip).map(|i| self.pips[i])
        }

        pub fn relocate(&mut self, i: usize, node: NodeId, pip: Pip) {
            self.nodes[i] = node;
            self.pips[i] = pip;
        }

        pub fn vms_on(&self, node: NodeId) -> Vec<usize> {
            (0..self.nodes.len())
                .filter(|&i| self.nodes[i] == node)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sv2p_topology::FatTreeConfig;

    /// Asserts that `p` and the oracle answer alike for every VM, for every
    /// server's `vms_on`, and for the VIPs either side of the placed range.
    fn agrees(topo: &Topology, p: &Placement, o: &oracle::Columns) -> Result<(), TestCaseError> {
        prop_assert_eq!(p.len(), o.pips.len());
        for i in 0..p.len() {
            let vip = p.vip_of(i);
            prop_assert_eq!(p.index_of(vip), o.index_of(vip));
            prop_assert_eq!(p.lookup(vip), o.lookup(vip));
            prop_assert_eq!(p.pip_of(i), o.pips[i]);
            prop_assert_eq!(p.node_of(i), o.nodes[i]);
        }
        let len = p.len() as u32;
        for vip in [0, VIP_BASE - 1, VIP_BASE + len, u32::MAX].map(Vip) {
            prop_assert_eq!(p.index_of(vip), o.index_of(vip));
            prop_assert_eq!(p.lookup(vip), o.lookup(vip));
        }
        for s in topo.servers() {
            prop_assert_eq!(p.vms_on(s.id), o.vms_on(s.id));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rule plus its exceptions answers what the two columns
        /// answer after any sequence of moves. Each tape also moves the
        /// first VM and the last, moves one VM twice and sends it home.
        #[test]
        fn rule_and_exceptions_match_two_column_oracle(
            pods_log2 in 0u32..3,
            vms_per_server in 1u32..6,
            moves in proptest::collection::vec((0usize..4096, 0usize..256), 0..80),
        ) {
            let topo = FatTreeConfig::scaled_ft8(1 << pods_log2).build();
            let mut p = Placement::uniform(&topo, vms_per_server);
            let mut o = oracle::Columns::uniform(&topo, vms_per_server);
            let servers: Vec<_> = topo.servers().map(|n| (n.id, n.pip)).collect();
            let last = p.len() - 1;
            let (home_node, home_pip) = (p.node_of(last), p.pip_of(last));
            let fixed = [(0, 1), (last, 2), (last, 3), (last, usize::MAX)];
            for (vm, srv) in fixed.into_iter().chain(moves) {
                let vm = vm % p.len();
                let (node, pip) = match srv {
                    usize::MAX => (home_node, home_pip),
                    _ => servers[srv % servers.len()],
                };
                p.relocate(vm, node, pip);
                o.relocate(vm, node, pip);
                prop_assert_eq!((p.pip_of(vm), p.node_of(vm)), (pip, node));
            }
            agrees(&topo, &p, &o)?;
        }
    }

    #[test]
    fn unmoved_placement_holds_one_entry_per_server() {
        let topo = FatTreeConfig::ft8_10k().build();
        let mut p = Placement::uniform(&topo, 80);
        let per_server = std::mem::size_of::<(Pip, NodeId)>();
        assert_eq!(p.resident_bytes(), topo.servers().count() * per_server);
        let far = topo.servers().last().unwrap();
        p.relocate(0, far.id, far.pip);
        assert!(p.resident_bytes() > topo.servers().count() * per_server);
        let home = topo.servers().next().unwrap();
        p.relocate(0, home.id, home.pip);
        assert!(p.moved.is_empty(), "a VM back home is no exception");
    }

    #[test]
    fn ft8_placement_is_10240_vms() {
        let topo = FatTreeConfig::ft8_10k().build();
        let p = Placement::uniform(&topo, 80);
        assert_eq!(p.len(), 10_240);
        // All VIPs unique and resolvable.
        for i in 0..p.len() {
            assert_eq!(p.index_of(p.vip_of(i)), Some(i));
            assert_eq!(p.lookup(p.vip_of(i)), Some(p.pip_of(i)));
        }
        for absent in [0, VIP_BASE - 1, VIP_BASE + 10_240, u32::MAX].map(Vip) {
            assert_eq!(p.index_of(absent), None);
            assert_eq!(p.lookup(absent), None);
        }
    }

    #[test]
    fn vms_spread_evenly() {
        let topo = FatTreeConfig::ft8_10k().build();
        let p = Placement::uniform(&topo, 80);
        let mut buf = Vec::new();
        for server in topo.servers() {
            p.vms_on_into(server.id, &mut buf);
            assert_eq!(buf.len(), 80);
            assert_eq!(p.vms_on(server.id), buf);
        }
    }

    #[test]
    fn seed_db_matches_placement() {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let p = Placement::uniform(&topo, 4);
        let db = p.seed_db();
        assert_eq!(db.len(), p.len());
        for i in 0..p.len() {
            assert_eq!(db.lookup(p.vip_of(i)), Some(p.pip_of(i)));
        }
    }

    #[test]
    fn relocate_updates_location_and_keeps_index() {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let mut p = Placement::uniform(&topo, 1);
        let target = topo.servers().last().unwrap();
        p.relocate(0, target.id, target.pip);
        assert_eq!(p.pip_of(0), target.pip);
        assert_eq!(p.node_of(0), target.id);
        assert!(p.vms_on(target.id).contains(&0));
        // The VIP stays; what it resolves to moves.
        assert_eq!(p.index_of(p.vip_of(0)), Some(0));
        assert_eq!(p.lookup(p.vip_of(0)), Some(target.pip));
    }
}
