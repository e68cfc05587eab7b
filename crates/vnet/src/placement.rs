//! VM placement: assigning virtual addresses to physical servers.
//!
//! The paper places VMs uniformly: "We uniformly draw sources and
//! destinations from a pool of 10240 VMs, with 80 VMs on each server"
//! (FT8-10K) and 32 containers per server for Alibaba on FT16-400K. The
//! placement fills servers round-robin so that VIP *i* lives on server
//! `i / vms_per_server` — uniform draws over VIPs then spread uniformly over
//! servers and racks.

use sv2p_packet::{Pip, Vip};
use sv2p_topology::{NodeId, Topology};

/// Where every VM lives.
///
/// The VIP column is index-ordered — [`Placement::uniform`] assigns
/// `Vip(VIP_BASE + i)` to VM *i* and [`Placement::relocate`] never touches
/// it — so [`Placement::index_of`] is a binary search over the sorted
/// column instead of a per-VM HashMap. At million-VM scale the placement is
/// 12 bytes per VM, all of it in the three parallel vectors.
#[derive(Debug, Clone)]
pub struct Placement {
    /// All VIPs, densely numbered and strictly increasing — `vips[i]` is
    /// VM *i*.
    pub vips: Vec<Vip>,
    /// Server PIP of each VM, parallel to `vips`.
    pub pips: Vec<Pip>,
    /// Host node of each VM, parallel to `vips`.
    pub nodes: Vec<NodeId>,
}

/// Base of the VIP number space (dotted "20.0.0.0"); VM *i* is `VIP_BASE + i`.
pub const VIP_BASE: u32 = 0x1400_0000;

impl Placement {
    /// Places `vms_per_server` VMs on every server of `topo`, in server
    /// iteration order.
    pub fn uniform(topo: &Topology, vms_per_server: u32) -> Self {
        assert!(vms_per_server > 0);
        let mut vips = Vec::new();
        let mut pips = Vec::new();
        let mut nodes = Vec::new();
        for server in topo.servers() {
            for _ in 0..vms_per_server {
                vips.push(Vip(VIP_BASE + vips.len() as u32));
                pips.push(server.pip);
                nodes.push(server.id);
            }
        }
        Placement { vips, pips, nodes }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vips.len()
    }

    /// True if no VMs are placed.
    pub fn is_empty(&self) -> bool {
        self.vips.is_empty()
    }

    /// VM index of a VIP, if it exists (binary search over the sorted VIP
    /// column).
    pub fn index_of(&self, vip: Vip) -> Option<usize> {
        self.vips.binary_search(&vip).ok()
    }

    /// VIP of VM `i`.
    pub fn vip_of(&self, i: usize) -> Vip {
        self.vips[i]
    }

    /// Current PIP of VM `i`.
    pub fn pip_of(&self, i: usize) -> Pip {
        self.pips[i]
    }

    /// Host node of VM `i`.
    pub fn node_of(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// Seeds a [`crate::MappingDb`] with the full placement.
    pub fn seed_db(&self) -> crate::MappingDb {
        let mut db = crate::MappingDb::new();
        for (i, &vip) in self.vips.iter().enumerate() {
            db.apply(crate::MappingOp::Install {
                vip,
                pip: self.pips[i],
            });
        }
        db
    }

    /// Records a migration of VM `i` to a new host (keeps the placement in
    /// sync with the mapping database; the caller updates the DB).
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

    /// Resident bytes of the three parallel columns (the other half of
    /// the benchmark's `vnet.v2p_state_mb`).
    pub fn resident_bytes(&self) -> usize {
        self.vips.capacity() * std::mem::size_of::<Vip>()
            + self.pips.capacity() * std::mem::size_of::<Pip>()
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
        for (i, &vip) in p.vips.iter().enumerate() {
            assert_eq!(p.index_of(vip), Some(i));
        }
        assert_eq!(p.index_of(Vip(VIP_BASE + 10_240)), None);
        assert_eq!(p.index_of(Vip(0)), None);
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
            assert_eq!(db.lookup(p.vips[i]), Some(p.pip_of(i)));
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
        // The VIP column is untouched, so lookups still binary-search.
        assert_eq!(p.index_of(p.vip_of(0)), Some(0));
    }
}
