//! Continuous-churn scenario generation (ROADMAP open item 3).
//!
//! The static sweeps exercise SwitchV2P against a fixed tenant population;
//! this module generates the regime where its learning/invalidation
//! machinery actually earns its keep: tenants arriving and departing under
//! a diurnally modulated Poisson process, per-tenant VM autoscaling, and
//! rolling migration waves that invalidate in-network mappings while
//! traffic is in flight.
//!
//! Everything is **precomputed**: [`ChurnPlan::generate`] expands a
//! [`ChurnSpec`] into plain flow specs, a migration table and a timeline of
//! [`ChurnMark`]s before the simulation starts. The simulator replays the
//! plan; it never samples randomness at run time. That keeps churn runs
//! byte-identical across seeds-equal runs and across shard counts (the
//! plan's tables are control state, registered once),
//! and makes churn freely composable with a
//! [`crate::faults::FaultPlan`] — the two are independent event sources on
//! the same calendar.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sv2p_packet::Pip;
use sv2p_simcore::{SimRng, SimTime};
use sv2p_topology::NodeId;
use sv2p_vnet::{Migration, Placement};

use crate::flows::{FlowKind, FlowSpec};

/// Fewest VMs a tenant claims on arrival.
const VMS_MIN: u32 = 2;
/// Arrival-rate multipliers over equal slices of the horizon (the
/// time-of-day curve).
const DIURNAL: [f64; 4] = [0.5, 1.0, 2.0, 1.0];
/// Gap between consecutive migrations within one wave (rolling, not
/// simultaneous).
const WAVE_STAGGER_US: u64 = 5;
/// TCP flows each claimed VM sources over its tenant's lifetime.
const FLOWS_PER_VM: u32 = 2;
/// Size of each of those flows.
const FLOW_BYTES: u64 = 20_000;

/// What a continuous-churn scenario varies (the paper has no churn
/// experiment, so the five constants above are this reproduction's own).
///
/// Rates are in virtual microseconds. The defaults describe a moderate
/// scenario on the small scaled topologies the experiment bins use; the
/// [`ChurnSpec::light`] / [`ChurnSpec::medium`] / [`ChurnSpec::heavy`]
/// presets are the three intensities the `churn` bin sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Master seed; every stream below forks from it.
    pub seed: u64,
    /// Scenario length: no arrival, departure or wave happens after this.
    pub horizon_us: u64,
    /// Mean tenant inter-arrival time at diurnal factor 1.0.
    pub arrival_mean_us: f64,
    /// Mean tenant lifetime (exponential).
    pub lifetime_mean_us: f64,
    /// Most VMs a tenant claims on arrival.
    pub vms_max: u32,
    /// Chance a tenant scales out mid-life, claiming extra VMs.
    pub autoscale_chance: f64,
    /// Rolling migration waves, spread evenly over the horizon.
    pub waves: u32,
    /// Fraction of currently-claimed VMs each wave migrates.
    pub wave_fraction: f64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            seed: 1,
            horizon_us: 20_000,
            arrival_mean_us: 400.0,
            lifetime_mean_us: 6_000.0,
            vms_max: 6,
            autoscale_chance: 0.3,
            waves: 3,
            wave_fraction: 0.25,
        }
    }
}

impl ChurnSpec {
    /// Sparse arrivals, one gentle wave.
    pub fn light(seed: u64, horizon_us: u64) -> Self {
        ChurnSpec {
            seed,
            horizon_us,
            arrival_mean_us: horizon_us as f64 / 20.0,
            waves: 1,
            wave_fraction: 0.1,
            autoscale_chance: 0.1,
            ..Self::default()
        }
    }

    /// The default intensity.
    pub fn medium(seed: u64, horizon_us: u64) -> Self {
        ChurnSpec {
            seed,
            horizon_us,
            arrival_mean_us: horizon_us as f64 / 50.0,
            ..Self::default()
        }
    }

    /// Dense arrivals and aggressive migration storms.
    pub fn heavy(seed: u64, horizon_us: u64) -> Self {
        ChurnSpec {
            seed,
            horizon_us,
            arrival_mean_us: horizon_us as f64 / 120.0,
            lifetime_mean_us: horizon_us as f64 / 4.0,
            vms_max: 10,
            autoscale_chance: 0.5,
            waves: 5,
            wave_fraction: 0.5,
        }
    }

    /// The horizon as a time.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_micros(self.horizon_us)
    }

    /// Arrival-rate multiplier in effect at `t_ns`.
    fn diurnal_factor(&self, t_ns: u64) -> f64 {
        let horizon_ns = self.horizon_us.max(1) * 1_000;
        let bucket = ((t_ns as u128 * DIURNAL.len() as u128 / horizon_ns as u128) as usize)
            .min(DIURNAL.len() - 1);
        DIURNAL[bucket]
    }
}

/// One point on the churn timeline, replayed by the simulator purely for
/// counters and telemetry (the state changes it describes — new flows,
/// migrations — are already materialized in the plan's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnMark {
    /// A tenant claimed `vms` VMs (autoscale growth of an existing tenant
    /// surfaces as a second arrival mark for the same tenant id).
    Arrival {
        /// When.
        at: SimTime,
        /// Tenant id (dense, in arrival order).
        tenant: u32,
        /// VMs claimed.
        vms: u32,
    },
    /// A tenant released all its VMs.
    Departure {
        /// When.
        at: SimTime,
        /// Tenant id.
        tenant: u32,
        /// VMs released.
        vms: u32,
    },
    /// A rolling migration wave began.
    Wave {
        /// When the first migration of the wave fires.
        at: SimTime,
        /// Migrations in the wave.
        migrations: u32,
    },
}

impl ChurnMark {
    /// When the mark fires.
    pub fn at(&self) -> SimTime {
        match *self {
            ChurnMark::Arrival { at, .. }
            | ChurnMark::Departure { at, .. }
            | ChurnMark::Wave { at, .. } => at,
        }
    }
}

/// A fully expanded churn scenario: plain inputs for the simulator.
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// Tenant traffic, in generation order (flow ids follow this order).
    pub flows: Vec<FlowSpec>,
    /// Wave migrations, in schedule order.
    pub migrations: Vec<Migration>,
    /// The timeline, in time order.
    pub marks: Vec<ChurnMark>,
}

/// Timeline-sweep event kinds, ordered for deterministic tie-breaking at
/// equal instants: departures free VMs before arrivals claim them.
const K_DEPART: u8 = 0;
const K_ARRIVE: u8 = 1;
const K_SCALE: u8 = 2;
const K_WAVE: u8 = 3;

struct Tenant {
    vms: Vec<usize>,
    depart_ns: u64,
    rng: SimRng,
}

impl ChurnPlan {
    /// Expands `spec` against a placement. `servers` lists the candidate
    /// migration targets (every server's node and PIP, in topology order).
    ///
    /// The expansion is a single time-ordered sweep over a merged timeline
    /// of precomputed arrivals, the departures/autoscales they spawn, and
    /// the wave instants, with a free-list of VM indices — so the exact
    /// same spec always yields the exact same plan, byte for byte.
    pub fn generate(spec: &ChurnSpec, placement: &Placement, servers: &[(NodeId, Pip)]) -> Self {
        assert!(VMS_MIN <= spec.vms_max);
        assert!(!servers.is_empty(), "no migration targets");
        let root = SimRng::new(spec.seed);
        let horizon_ns = spec.horizon_us * 1_000;

        // Precompute the diurnally modulated arrival instants.
        let mut arr_rng = root.fork(1);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        while arrivals.len() < 100_000 {
            let mean = spec.arrival_mean_us / spec.diurnal_factor(t as u64 * 1_000);
            t += arr_rng.exponential(mean.max(1e-3));
            let at_ns = (t * 1_000.0) as u64;
            if at_ns >= horizon_ns {
                break;
            }
            arrivals.push(at_ns);
        }

        // Merge timeline: (time, kind, payload) min-heap.
        let mut timeline: BinaryHeap<Reverse<(u64, u8, u32)>> = BinaryHeap::new();
        for (i, &at_ns) in arrivals.iter().enumerate() {
            timeline.push(Reverse((at_ns, K_ARRIVE, i as u32)));
        }
        for j in 0..spec.waves {
            let at_ns = horizon_ns as u128 * (j as u128 + 1) / (spec.waves as u128 + 1);
            timeline.push(Reverse((at_ns as u64, K_WAVE, j)));
        }

        // Free VM indices; popped ascending.
        let mut free: Vec<usize> = (0..placement.len()).rev().collect();
        let mut tenants: Vec<Tenant> = Vec::new();
        let mut plan = ChurnPlan::default();

        while let Some(Reverse((at_ns, kind, payload))) = timeline.pop() {
            match kind {
                K_ARRIVE => {
                    let tid = tenants.len() as u32;
                    let mut rng = root.fork(1_000 + tid as u64);
                    let want = rng.gen_range(VMS_MIN..=spec.vms_max) as usize;
                    let claimed: Vec<usize> = (0..want).map_while(|_| free.pop()).collect();
                    let life_ns =
                        (rng.exponential(spec.lifetime_mean_us).max(1.0) * 1_000.0) as u64;
                    let depart_ns = at_ns + life_ns;
                    if depart_ns < horizon_ns {
                        timeline.push(Reverse((depart_ns, K_DEPART, tid)));
                    }
                    if rng.chance(spec.autoscale_chance) {
                        let scale_ns = at_ns + life_ns / 2;
                        if scale_ns < horizon_ns {
                            timeline.push(Reverse((scale_ns, K_SCALE, tid)));
                        }
                    }
                    plan.marks.push(ChurnMark::Arrival {
                        at: SimTime::from_nanos(at_ns),
                        tenant: tid,
                        vms: claimed.len() as u32,
                    });
                    gen_tenant_flows(
                        placement,
                        &mut rng,
                        &claimed,
                        &claimed,
                        at_ns,
                        depart_ns,
                        horizon_ns,
                        &mut plan.flows,
                    );
                    tenants.push(Tenant {
                        vms: claimed,
                        depart_ns,
                        rng,
                    });
                }
                K_SCALE => {
                    let tid = payload as usize;
                    let extra_want = (tenants[tid].vms.len() / 2).max(1);
                    let extra: Vec<usize> = (0..extra_want).map_while(|_| free.pop()).collect();
                    if extra.is_empty() {
                        continue;
                    }
                    plan.marks.push(ChurnMark::Arrival {
                        at: SimTime::from_nanos(at_ns),
                        tenant: tid as u32,
                        vms: extra.len() as u32,
                    });
                    let tn = &mut tenants[tid];
                    let depart_ns = tn.depart_ns;
                    let mut rng = tn.rng.fork(2);
                    tn.vms.extend_from_slice(&extra);
                    let all = tn.vms.clone();
                    gen_tenant_flows(
                        placement,
                        &mut rng,
                        &extra,
                        &all,
                        at_ns,
                        depart_ns,
                        horizon_ns,
                        &mut plan.flows,
                    );
                }
                K_DEPART => {
                    let tid = payload as usize;
                    let vms = std::mem::take(&mut tenants[tid].vms);
                    plan.marks.push(ChurnMark::Departure {
                        at: SimTime::from_nanos(at_ns),
                        tenant: tid as u32,
                        vms: vms.len() as u32,
                    });
                    // Released ascending so reclaim order is stable.
                    let mut vms = vms;
                    vms.sort_unstable_by(|a, b| b.cmp(a));
                    free.extend(vms);
                }
                _ => {
                    // K_WAVE: migrate a slice of everything currently
                    // claimed, rolling with a fixed stagger.
                    let mut rng = root.fork((1 << 32) + payload as u64);
                    let mut claimed: Vec<usize> =
                        tenants.iter().flat_map(|t| t.vms.iter().copied()).collect();
                    rng.shuffle(&mut claimed);
                    let count = ((claimed.len() as f64 * spec.wave_fraction).ceil() as usize)
                        .min(claimed.len());
                    plan.marks.push(ChurnMark::Wave {
                        at: SimTime::from_nanos(at_ns),
                        migrations: count as u32,
                    });
                    for (i, &vm) in claimed[..count].iter().enumerate() {
                        let cur = placement.node_of(vm);
                        let mut pick = *rng.choose(servers);
                        if pick.0 == cur {
                            // Deterministic re-pick: next server in order.
                            let idx = servers.iter().position(|s| s.0 == pick.0).unwrap();
                            pick = servers[(idx + 1) % servers.len()];
                        }
                        let at = SimTime::from_nanos(at_ns + i as u64 * WAVE_STAGGER_US * 1_000);
                        plan.migrations.push(Migration::new(
                            at,
                            placement.vip_of(vm),
                            pick.0,
                            pick.1,
                        ));
                    }
                }
            }
        }
        plan
    }
}

/// Generates [`FLOWS_PER_VM`] TCP flows sourced by each VM in `srcs`,
/// destined to other VMs of the same tenant (`pool`) when it has more than
/// one VM, spread uniformly over the tenant's lifetime.
#[allow(clippy::too_many_arguments)]
fn gen_tenant_flows(
    placement: &Placement,
    rng: &mut SimRng,
    srcs: &[usize],
    pool: &[usize],
    from_ns: u64,
    to_ns: u64,
    horizon_ns: u64,
    out: &mut Vec<FlowSpec>,
) {
    let end_ns = to_ns.min(horizon_ns).max(from_ns + 1);
    for &src in srcs {
        for _ in 0..FLOWS_PER_VM {
            let dst = if pool.len() > 1 {
                // Another VM of the same tenant.
                let mut d = *rng.choose(pool);
                while d == src {
                    d = *rng.choose(pool);
                }
                d
            } else if placement.len() > 1 {
                // Solo tenant: talk to some other VM so it still loads the
                // network.
                let mut d = rng.gen_range(0..placement.len());
                while d == src {
                    d = rng.gen_range(0..placement.len());
                }
                d
            } else {
                continue;
            };
            let start = rng.gen_range(from_ns..end_ns);
            out.push(FlowSpec {
                src_vm: src,
                dst_vm: dst,
                start: SimTime::from_nanos(start),
                kind: FlowKind::Tcp { bytes: FLOW_BYTES },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_topology::{FatTreeConfig, Topology};

    fn setup() -> (Topology, Placement, Vec<(NodeId, Pip)>) {
        let topo = FatTreeConfig::scaled_ft8(2).build();
        let placement = Placement::uniform(&topo, 4);
        let servers: Vec<(NodeId, Pip)> = topo.servers().map(|s| (s.id, s.pip)).collect();
        (topo, placement, servers)
    }

    #[test]
    fn same_spec_same_plan() {
        let (_t, placement, servers) = setup();
        let spec = ChurnSpec::medium(42, 20_000);
        let a = ChurnPlan::generate(&spec, &placement, &servers);
        let b = ChurnPlan::generate(&spec, &placement, &servers);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!a.flows.is_empty(), "medium churn generates traffic");
        assert!(!a.marks.is_empty());
    }

    #[test]
    fn different_seed_different_plan() {
        let (_t, placement, servers) = setup();
        let a = ChurnPlan::generate(&ChurnSpec::medium(1, 20_000), &placement, &servers);
        let b = ChurnPlan::generate(&ChurnSpec::medium(2, 20_000), &placement, &servers);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn plan_respects_horizon_and_wave_counts() {
        let (_t, placement, servers) = setup();
        let spec = ChurnSpec::heavy(7, 30_000);
        let plan = ChurnPlan::generate(&spec, &placement, &servers);
        let horizon = spec.horizon();
        for mark in &plan.marks {
            assert!(mark.at() < horizon, "mark past horizon: {mark:?}");
        }
        for f in &plan.flows {
            assert!(f.start < horizon);
            assert_ne!(f.src_vm, f.dst_vm);
        }
        let wave_marks: u32 = plan
            .marks
            .iter()
            .map(|m| match m {
                ChurnMark::Wave { migrations, .. } => *migrations,
                _ => 0,
            })
            .sum();
        assert_eq!(wave_marks as usize, plan.migrations.len());
        assert_eq!(
            plan.marks
                .iter()
                .filter(|m| matches!(m, ChurnMark::Wave { .. }))
                .count(),
            spec.waves as usize
        );
        // Every migration actually moves the VM somewhere else.
        for m in &plan.migrations {
            let vm = placement.index_of(m.vip).unwrap();
            assert_ne!(m.to_node, placement.node_of(vm));
        }
    }

    #[test]
    fn marks_are_time_ordered() {
        let (_t, placement, servers) = setup();
        let plan = ChurnPlan::generate(&ChurnSpec::medium(9, 25_000), &placement, &servers);
        for w in plan.marks.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }
}
