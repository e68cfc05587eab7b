//! Property tests for the virtual-network layer: the placement answers as
//! a seeded `MappingDb` would across arbitrary migration histories, and
//! gateway balancing quality.

use proptest::prelude::*;
use sv2p_topology::FatTreeConfig;
use sv2p_vnet::{ApplyError, GatewayDirectory, MappingDb, MappingDelta, MappingOp, Placement};

/// The pre-compaction `MappingDb`: plain HashMaps, the behavioral oracle
/// the open-addressed layout must be indistinguishable from (lookups,
/// deltas, epochs and errors alike).
#[derive(Default)]
struct OracleDb {
    map: std::collections::HashMap<u32, u32>,
    epoch: u64,
}

impl OracleDb {
    fn try_apply(&mut self, op: MappingOp) -> Result<MappingDelta, ApplyError> {
        use sv2p_packet::{Pip, Vip};
        let delta = match op {
            MappingOp::Install { vip, pip } => {
                let old = self.map.insert(vip.0, pip.0).map(Pip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old,
                    new: Some(pip),
                    epoch: self.epoch,
                }
            }
            MappingOp::Invalidate { vip } => {
                let old = self.map.remove(&vip.0).map(Pip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old,
                    new: None,
                    epoch: self.epoch,
                }
            }
            MappingOp::Migrate { vip, to_pip, .. } => {
                if !self.map.contains_key(&vip.0) {
                    return Err(ApplyError::UnknownVip(Vip(vip.0)));
                }
                let old = self.map.insert(vip.0, to_pip.0).map(Pip);
                self.epoch += 1;
                MappingDelta {
                    vip,
                    old,
                    new: Some(to_pip),
                    epoch: self.epoch,
                }
            }
        };
        Ok(delta)
    }
}

/// Arbitrary op over a small VIP universe so sequences collide, migrate
/// absent VIPs, and churn the same keys repeatedly.
fn arb_op() -> impl Strategy<Value = MappingOp> {
    use sv2p_packet::{Pip, Vip};
    prop_oneof![
        (0u32..48, 1u32..1_000).prop_map(|(v, p)| MappingOp::Install {
            vip: Vip(v),
            pip: Pip(p)
        }),
        (0u32..48).prop_map(|v| MappingOp::Invalidate { vip: Vip(v) }),
        (0u32..48, 1u32..1_000, proptest::option::of(0u64..1_000_000)).prop_map(|(v, p, at)| {
            MappingOp::Migrate {
                vip: Vip(v),
                to_pip: Pip(p),
                at_ns: at,
            }
        }),
    ]
}

/// One step of the compact table's property: an op, or a bulk
/// [`MappingDb::reserve`], which must leave every observable unchanged.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(MappingOp),
    Reserve(usize),
}

/// One step in ten is a reservation.
fn arb_step() -> impl Strategy<Value = Step> {
    (0u32..10, arb_op(), 0usize..200).prop_map(|(roll, op, more)| {
        if roll == 0 {
            Step::Reserve(more)
        } else {
            Step::Op(op)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simulator keeps no `MappingDb`: the placement is its V2P truth.
    /// That is sound because a table seeded with the placement and sent the
    /// same migrations answers exactly what the placement answers, for
    /// every placed VIP and for VIPs either side of the placed range.
    #[test]
    fn placement_lookup_is_the_seeded_db_across_migrations(
        pods_log2 in 0u32..3,
        vms_per_server in 1u32..5,
        moves in proptest::collection::vec((0usize..1024, 0usize..128), 0..60),
    ) {
        use sv2p_packet::Vip;
        use sv2p_vnet::placement::VIP_BASE;
        let topo = FatTreeConfig::scaled_ft8(1 << pods_log2).build();
        let mut placement = Placement::uniform(&topo, vms_per_server);
        let mut db = placement.seed_db();
        let servers: Vec<_> = topo.servers().map(|n| (n.id, n.pip)).collect();
        for (vm, srv) in moves {
            let vm = vm % placement.len();
            let (node, pip) = servers[srv % servers.len()];
            db.apply(MappingOp::Migrate { vip: placement.vip_of(vm), to_pip: pip, at_ns: None });
            placement.relocate(vm, node, pip);
        }
        let len = placement.len();
        for i in 0..len {
            let vip = placement.vip_of(i);
            prop_assert_eq!(placement.index_of(vip), Some(i));
            prop_assert_eq!(placement.lookup(vip), Some(placement.pip_of(i)));
            prop_assert_eq!(placement.lookup(vip), db.lookup(vip));
        }
        for vip in [Vip(0), Vip(VIP_BASE - 1), Vip(VIP_BASE + len as u32), Vip(u32::MAX)] {
            prop_assert_eq!(placement.lookup(vip), None);
            prop_assert_eq!(db.lookup(vip), None);
        }
        prop_assert_eq!(db.len(), len);
    }

    #[test]
    fn vms_on_is_consistent_with_node_of(
        moves in proptest::collection::vec((0usize..64, 0usize..16), 0..40),
    ) {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let mut placement = Placement::uniform(&topo, 2);
        let servers: Vec<_> = topo.servers().map(|n| (n.id, n.pip)).collect();
        for (vm, srv) in moves {
            let vm = vm % placement.len();
            let (node, pip) = servers[srv % servers.len()];
            placement.relocate(vm, node, pip);
        }
        let mut total = 0;
        for &(node, _) in &servers {
            for vm in placement.vms_on(node) {
                prop_assert_eq!(placement.node_of(vm), node);
            }
            total += placement.vms_on(node).len();
        }
        prop_assert_eq!(total, placement.len());
    }

    #[test]
    fn compact_db_is_indistinguishable_from_hashmap_oracle(
        steps in proptest::collection::vec(arb_step(), 0..400),
    ) {
        use sv2p_packet::Vip;
        let mut compact = MappingDb::new();
        let mut oracle = OracleDb::default();
        for step in steps {
            let op = match step {
                Step::Op(op) => op,
                Step::Reserve(more) => {
                    compact.reserve(more);
                    prop_assert_eq!(compact.len(), oracle.map.len());
                    prop_assert_eq!(compact.epoch(), oracle.epoch);
                    continue;
                }
            };
            let a = compact.try_apply(op);
            let b = oracle.try_apply(op);
            prop_assert_eq!(a, b, "divergent result for {:?}", op);
        }
        // End states agree on every observable: lookups (present and
        // absent), membership, len and epoch.
        prop_assert_eq!(compact.len(), oracle.map.len());
        prop_assert_eq!(compact.epoch(), oracle.epoch);
        for v in 0u32..48 {
            prop_assert_eq!(
                compact.lookup(Vip(v)).map(|p| p.0),
                oracle.map.get(&v).copied()
            );
            prop_assert_eq!(compact.contains(Vip(v)), oracle.map.contains_key(&v));
        }
        // iter() yields exactly the oracle's entry set (order is the
        // compact table's own, so compare as sorted sets).
        let mut got: Vec<(u32, u32)> = compact.iter().map(|(v, p)| (v.0, p.0)).collect();
        got.sort_unstable();
        let mut want: Vec<(u32, u32)> = oracle.map.iter().map(|(&v, &p)| (v, p)).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn gateway_balancing_is_fair(seed in any::<u64>()) {
        let topo = FatTreeConfig::ft8_10k().build();
        let dir = GatewayDirectory::from_topology(&topo);
        let n = dir.len() as f64;
        let mut counts = std::collections::HashMap::new();
        let trials = 20_000u64;
        for i in 0..trials {
            *counts.entry(dir.pick(seed.wrapping_add(i))).or_insert(0u64) += 1;
        }
        // Per-flow balancing: no gateway receives more than 3x its fair
        // share over 20k flows.
        let fair = trials as f64 / n;
        for (&gw, &c) in &counts {
            prop_assert!(
                (c as f64) < 3.0 * fair,
                "gateway {gw} got {c} of {trials} flows (fair {fair})"
            );
        }
    }
}
