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

use sv2p_packet::{Pip, Vip};
use sv2p_topology::{NodeId, Topology};

/// Where every VM lives, and so what every VIP resolves to.
///
/// VM *i* is `Vip(VIP_BASE + i)` by construction, so the VIP is not stored:
/// [`Placement::vip_of`] and [`Placement::index_of`] are arithmetic. At
/// million-VM scale the placement is 8 bytes per VM, all of it in the two
/// parallel columns.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Server PIP of each VM: `pips[i]` is what `vip_of(i)` resolves to.
    pub pips: Vec<Pip>,
    /// Host node of each VM, parallel to `pips`.
    pub nodes: Vec<NodeId>,
}

/// Base of the VIP number space (dotted "20.0.0.0"); VM *i* is `VIP_BASE + i`.
pub const VIP_BASE: u32 = 0x1400_0000;

impl Placement {
    /// Places `vms_per_server` VMs on every server of `topo`, in server
    /// iteration order.
    pub fn uniform(topo: &Topology, vms_per_server: u32) -> Self {
        assert!(vms_per_server > 0);
        let (pips, nodes) = topo
            .servers()
            .flat_map(|s| std::iter::repeat_n((s.pip, s.id), vms_per_server as usize))
            .unzip();
        Placement { pips, nodes }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.pips.len()
    }

    /// True if no VMs are placed.
    pub fn is_empty(&self) -> bool {
        self.pips.is_empty()
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

    /// The PIP `vip` resolves to now — the gateway's translation. `None`
    /// for a VIP that was never placed, which the gateway drops.
    pub fn lookup(&self, vip: Vip) -> Option<Pip> {
        self.index_of(vip).map(|i| self.pips[i])
    }

    /// Current PIP of VM `i`.
    pub fn pip_of(&self, i: usize) -> Pip {
        self.pips[i]
    }

    /// Host node of VM `i`.
    pub fn node_of(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// A [`crate::MappingDb`] holding the full placement, one `Install` per
    /// VM. The simulator never builds one (it reads the placement); this is
    /// the fixture of the `MappingDb` kernels and of the property test
    /// certifying that the two answer alike.
    pub fn seed_db(&self) -> crate::MappingDb {
        let mut db = crate::MappingDb::new();
        for (i, &pip) in self.pips.iter().enumerate() {
            db.apply(crate::MappingOp::Install {
                vip: self.vip_of(i),
                pip,
            });
        }
        db
    }

    /// Moves VM `i` to a new host: the migration's one write, after which
    /// [`Self::lookup`] answers the new PIP.
    pub fn relocate(&mut self, i: usize, node: NodeId, pip: Pip) {
        self.nodes[i] = node;
        self.pips[i] = pip;
    }

    /// Collects the VM indices hosted on `node` into `out` (cleared first),
    /// so scan-heavy callers can reuse one buffer instead of allocating per
    /// call.
    pub fn vms_on_into(&self, node: NodeId, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.len()).filter(|&i| self.nodes[i] == node));
    }

    /// All VM indices hosted on `node` (allocating convenience wrapper over
    /// [`Self::vms_on_into`]).
    pub fn vms_on(&self, node: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        self.vms_on_into(node, &mut out);
        out
    }

    /// Resident bytes of the two parallel columns: the simulator's whole
    /// V2P state (the benchmark's `vnet.v2p_state_mb`).
    pub fn resident_bytes(&self) -> usize {
        self.pips.capacity() * std::mem::size_of::<Pip>()
            + self.nodes.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_topology::FatTreeConfig;

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
