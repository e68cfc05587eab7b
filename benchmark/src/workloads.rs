//! The five workloads: how each turns `--seed` into the inputs the program
//! receives. Nothing here reads the clock except to time input generation.

use std::collections::HashSet;
use std::time::Instant;

use sv2p_bench::harness::{ExperimentSpec, StrategyKind};
use sv2p_bench::Scale;
use sv2p_packet::packet::MSS;
use sv2p_simcore::SimRng;
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{AlibabaConfig, FlowSource, HadoopConfig, TraceFlow};
use sv2p_vnet::Placement;

use crate::spec::WORKLOADS;

/// One of the workloads named in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ft8Hadoop,
    Ft16AlibabaGw,
    Ft32Hadoop,
    Ft8Churn,
    CtlMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ft8Hadoop,
        Workload::Ft16AlibabaGw,
        Workload::Ft32Hadoop,
        Workload::Ft8Churn,
        Workload::CtlMixed,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        self != Workload::CtlMixed
    }

    /// Shards the workload's input is run on as well, beside the one shard
    /// every figure comes from: the digest must be the same, and the sharded
    /// engine's costs are per-layer metrics of this workload.
    ///
    /// Its run time is not an end-to-end metric. Two workers and the driver
    /// thread hand over at every one of ~1 400 window barriers, so on two
    /// shared vCPUs it times the host's scheduler: the driver's own check
    /// measured ten runs of unchanged code 22 % and 31 % apart.
    pub fn also_on_shards(self) -> Option<u16> {
        (self == Workload::Ft8Hadoop).then_some(2)
    }

    /// Whether a repetition's threads are kept on one CPU.
    ///
    /// `ctl-mixed` is a closed loop over one connection: the client thread and
    /// the handler thread never work at the same time, so one CPU loses it
    /// nothing (measured: 0.34 s a repetition either way on a quiet host).
    /// Across two CPUs every hand-off wakes an idle vCPU, and on the sandbox's
    /// hypervisor that costs 8 us or 45 us a round trip depending on a polling
    /// state that a few minutes of load flips: `rtt_p50` went from 36 us to
    /// 80-150 us and back with no change to the program. On one CPU it stays
    /// at 36-43 us in both states.
    pub fn pinned_to_one_cpu(self) -> bool {
        self == Workload::CtlMixed
    }

    /// `MemAvailable` below which the workload refuses to run.
    pub fn min_mem_bytes(self) -> u64 {
        if self == Workload::Ft32Hadoop {
            2 << 30
        } else {
            0
        }
    }
}

/// Sizes of one repetition. They were tuned on the 2-core sandbox so one
/// repetition takes about half a second and a run of
/// [`crate::spec::RUN_SECONDS`] sees each slice thirty times or more (over
/// twenty repetitions the slice floors spread 6 %, over forty 4 %; README);
/// `--smoke` divides them by ten.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TCP flows (RPCs for `ft16-alibaba-gw`).
    pub flows: usize,
    /// Control-plane ops per repetition.
    pub ctl_ops: u64,
    /// Control-plane mappings preloaded.
    pub ctl_mappings: u32,
}

impl Sizes {
    pub fn of(w: Workload, smoke: bool) -> Sizes {
        let div = if smoke { 10 } else { 1 };
        let flows = match w {
            Workload::Ft8Hadoop | Workload::Ft8Churn => 1_000,
            Workload::Ft16AlibabaGw => 8_000,
            Workload::Ft32Hadoop => 900,
            Workload::CtlMixed => 0,
        };
        Sizes {
            flows: flows / div,
            ctl_ops: 2_000_000 / div as u64,
            ctl_mappings: 1_000_000 / div as u32,
        }
    }
}

pub const CTL_STRIPES: usize = 16;
pub const CTL_BATCH: usize = 256;
pub const CTL_INVALIDATE_PCT: f64 = 20.0;

/// Cache budget of the SwitchV2P workloads: the paper's per-switch capacity
/// (64 lines on each of FT8-10K's 80 switches), as the figure bins use.
const CACHE_ENTRIES: usize = 64 * 80;

/// Simulated-time stop of `ft8-churn`, far past the last flow: a guard, so
/// a packet that never settles cannot make a repetition run for minutes.
const CHURN_STOP_US: u64 = 500_000;

/// A simulator workload's inputs, ready to build.
pub struct SimInputs {
    pub spec: ExperimentSpec,
    /// Data packets the flows offer: the unit `run_ns_per_unit` divides by.
    pub offered_packets: u64,
    /// Wall-clock spent generating the flows once.
    pub gen_s: f64,
}

/// Seed of the dataset: the sample of flow sizes and arrival times drawn
/// from the published distributions. The figure bins replay one such sample
/// under every `--seed`, and so does the benchmark; what `--seed` decides is
/// which VMs the flows run between (and the simulator's own randomness).
/// Sizes are heavy-tailed, so a fresh sample per seed would move the offered
/// work, and with it time and memory, by more than any bound (measured:
/// peak RSS spread 11-13 % over ten seeds, against 0.1 % within a seed).
const DATASET_SEED: u64 = 1;

/// Draws the dataset from `source` and moves it onto the fabric: every VM
/// index goes through a permutation of the `vms` placed VMs chosen by `seed`,
/// so the seed sets which racks and pods talk, how long paths are, and which
/// cache lines collide.
fn place_flows(source: FlowSource, vms: usize, seed: u64) -> Vec<TraceFlow> {
    let mut perm: Vec<u32> = (0..vms as u32).collect();
    SimRng::new(seed ^ 0x706C_6163).shuffle(&mut perm);
    source
        .map(|f| TraceFlow {
            src_vm: perm[f.src_vm % vms] as usize,
            dst_vm: perm[f.dst_vm % vms] as usize,
            ..f
        })
        .collect()
}

fn offered_packets(flows: &[TraceFlow]) -> u64 {
    flows
        .iter()
        .map(|f| f.bytes().div_ceil(u64::from(MSS)).max(1))
        .sum()
}

/// Picks the VMs `ft8-churn` migrates: the destination of every fourth flow,
/// 20 µs after the flow starts, so the move lands under live traffic. Each VM
/// moves once, to the last server (the harness's migration target).
///
/// A VM is left in place when one of its peers shares its server. A sender on
/// the migrated VM's old host is a case the program does not settle: the old
/// host forwards the misdelivered packet with the sender's own address as
/// outer source, its ToR takes it for fresh traffic, serves the stale entry
/// and hands the packet back, for ever. The flow then never completes (see
/// the README's open questions). The benchmark needs workloads on which no
/// operation fails, so it steps around the case and says so.
fn churn_migrations(
    ft: &FatTreeConfig,
    vms_per_server: u32,
    flows: &[TraceFlow],
) -> Vec<(usize, u64)> {
    let placement = Placement::uniform(&ft.build(), vms_per_server);
    let n = placement.len();
    let last_server = placement.node_of(n - 1);
    let mut has_local_peer = HashSet::new();
    for f in flows {
        if placement.node_of(f.src_vm) == placement.node_of(f.dst_vm) {
            has_local_peer.insert(f.src_vm);
            has_local_peer.insert(f.dst_vm);
        }
    }
    let mut moved = HashSet::new();
    flows
        .iter()
        .step_by(4)
        .map(|f| (f.dst_vm, f.start_ns / 1_000 + 20))
        .filter(|&(vm, _)| {
            !has_local_peer.contains(&vm)
                && placement.node_of(vm) != last_server
                && moved.insert(vm)
        })
        .collect()
}

/// Builds the inputs of simulator workload `w` from `seed`.
pub fn sim_inputs(w: Workload, seed: u64, sizes: Sizes, shards: u16, profile: bool) -> SimInputs {
    let scale = Scale::Quick;
    let start = Instant::now();
    let (fabric, vms_per_server, strategy, source) = match w {
        Workload::Ft8Hadoop | Workload::Ft8Churn => {
            let cfg = HadoopConfig {
                flows: sizes.flows,
                seed: DATASET_SEED,
                ..scale.hadoop()
            };
            (
                scale.ft8(),
                80,
                StrategyKind::SwitchV2P,
                FlowSource::hadoop(&cfg),
            )
        }
        Workload::Ft16AlibabaGw => {
            // Ten RPCs per simulated microsecond, the rate of the quick
            // Alibaba figure runs.
            let cfg = AlibabaConfig {
                vms: 409_600,
                rpcs: sizes.flows,
                duration_ns: sizes.flows as u64 * 100,
                seed: DATASET_SEED,
                ..Default::default()
            };
            (
                FatTreeConfig::ft16_400k(),
                32,
                StrategyKind::NoCache,
                FlowSource::alibaba(&cfg),
            )
        }
        Workload::Ft32Hadoop => {
            let cfg = HadoopConfig {
                flows: sizes.flows,
                seed: DATASET_SEED,
                ..scale.huge_hadoop()
            };
            (
                scale.ft32(),
                32,
                StrategyKind::SwitchV2P,
                FlowSource::hadoop(&cfg),
            )
        }
        Workload::CtlMixed => unreachable!("ctl-mixed has no simulator inputs"),
    };
    let vms = fabric.characteristics().physical_servers as usize * vms_per_server as usize;
    let flows = place_flows(source, vms, seed);
    let offered = offered_packets(&flows);
    let mut builder =
        ExperimentSpec::builder(fabric.clone(), strategy).vms_per_server(vms_per_server);
    if strategy == StrategyKind::SwitchV2P {
        builder = builder.cache_entries(CACHE_ENTRIES);
    }
    if w == Workload::Ft8Churn {
        builder = builder
            .migrations(churn_migrations(&fabric, vms_per_server, &flows))
            .end_of_time_us(CHURN_STOP_US);
    }
    let builder = builder.flows(flows);
    let gen_s = start.elapsed().as_secs_f64();
    let spec = builder
        .seed(seed)
        .shards(shards)
        .profile(profile)
        .label(w.name())
        .build();
    SimInputs {
        spec,
        offered_packets: offered,
        gen_s,
    }
}
