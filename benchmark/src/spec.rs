//! The benchmark's declared surface: workloads, metrics, units and bounds.
//! `BENCHMARK.json` is this table rendered by [`manifest`]; a test holds the
//! committed file to it, so a name is printed if and only if it is declared.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the share of the parent's median by which it
/// may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric; the layer is the crate name before the first dot.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds. With five workloads the driver
/// makes 114 runs; at 24 s of measuring plus two of building and checking
/// each, they and two builds end inside its 3420 s with five minutes to spare.
pub const RUN_SECONDS: u64 = 24;

/// Metrics a user of the system feels, defined on every workload.
///
/// * `run_ns_per_unit`: wall-clock of the measured run (`Engine::run()`, or
///   the closed control-plane loop) per unit of offered work. A unit is one
///   data packet the generated flows offer (sum over flows of
///   `ceil(bytes / MSS)`) or one control-plane op. Dividing by the offered
///   work, which the inputs fix, keeps a change that executes fewer events
///   from being punished and keeps seeds comparable.
/// * `setup_s`: input generation, `Engine::new` and `add_flows` (ctl:
///   preload, server spawn, connect).
/// * `peak_rss_mb`: `VmHWM` of the cell's process after its first repetition.
///
/// All are host time, unscaled, and each is the fastest the host gave: for
/// the run, every slice's fastest observation over the repetitions, summed
/// (`cell.rs`); for set-up, the fastest of the repetitions.
///
/// A bound is three times the widest spread of ten seeds measured with this
/// protocol (README), the margin the builder's contract asks for. Run time
/// spread 1-4 % in five sweeps and 7.1 % in the worst (`ctl-mixed`, whose floor
/// itself drifted by 8 % in four minutes), so 0.25, the contract's largest,
/// and not the 0.15 the issue hoped for; the driver's host is noisier than
/// any hour seen here (it measured the earlier estimator 19-37 % apart).
/// Memory repeats to 0.3 % within a seed, but which VMs talk moves the peak
/// by up to 6.2 % between quartiles on `ft8-churn`, so 0.20. `setup_s` is a
/// millisecond on FT8 and has the largest bound, as the contract asks.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_ns_per_unit",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, reported by a traced run and never gated. A metric of
/// a layer the workload does not use reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // From the engine's own profiler and public counters (traced repetition).
    lower("netsim.events", "count"),
    higher("netsim.events_per_s", "1/s"),
    lower("netsim.run_s", "s"),
    lower("netsim.peak_queue", "count"),
    lower("netsim.peak_arena", "count"),
    lower("netsim.link_arrival_ns", "ns"),
    lower("netsim.link_arrival_calls", "count"),
    lower("netsim.link_free_ns", "ns"),
    lower("netsim.host_forward_ns", "ns"),
    lower("netsim.re_inject_ns", "ns"),
    lower("netsim.setup_rss_mb", "MB"),
    lower("simcore.pop_ns", "ns"),
    lower("transport.flow_start_ns", "ns"),
    lower("transport.rto_timer_ns", "ns"),
    lower("transport.retransmissions", "count"),
    lower("vnet.gateway_ns", "ns"),
    lower("vnet.gateway_packets", "count"),
    lower("vnet.migrate_ns", "ns"),
    lower("vnet.migrations", "count"),
    lower("vnet.v2p_state_mb", "MB"),
    higher("switchv2p.hit_rate", "ratio"),
    lower("switchv2p.stale_hits", "count"),
    lower("switchv2p.invalidation_packets", "count"),
    lower("switchv2p.misdelivered", "count"),
    lower("metrics.summary_s", "s"),
    lower("traces.gen_s", "s"),
    lower("telemetry.profile_overhead", "ratio"),
    // The sharded engine, from the workload's run on two shards.
    lower("netsim.sharded.run_ns_per_unit", "ns"),
    higher("netsim.sharded.worker_replay_frac", "ratio"),
    lower("netsim.sharded.barrier_wait_frac", "ratio"),
    lower("netsim.sharded.journal_merge_frac", "ratio"),
    lower("netsim.sharded.cut_exchange_frac", "ratio"),
    lower("netsim.sharded.window_advance_frac", "ratio"),
    lower("netsim.sharded.global_exec_frac", "ratio"),
    lower("netsim.sharded.imbalance_cv", "ratio"),
    lower("netsim.sharded.windows", "count"),
    lower("netsim.sharded.cut_events", "count"),
    lower("netsim.sharded.cpu_s", "s"),
    higher("netsim.sharded.cores_busy", "ratio"),
    // From the benchmark's own spans around each layer's public functions,
    // at the occupancy the workload reached.
    lower("simcore.calendar_ns", "ns"),
    lower("netsim.arena_ns", "ns"),
    lower("topology.build_s", "s"),
    lower("topology.candidates_ns", "ns"),
    lower("switchv2p.cache_lookup_ns", "ns"),
    lower("switchv2p.cache_insert_ns", "ns"),
    lower("switchv2p.cache_invalidate_ns", "ns"),
    lower("vnet.mapping_lookup_ns", "ns"),
    lower("vnet.mapping_write_ns", "ns"),
    lower("vnet.placement_index_ns", "ns"),
    lower("transport.tcp_ack_ns", "ns"),
    higher("model.attributed_frac", "ratio"),
    lower("model.residual_frac", "ratio"),
    // Served control plane (`ctl-mixed`); per-batch costs are per 256 ops.
    lower("controlplane.encode_request_ns", "ns"),
    lower("controlplane.decode_request_ns", "ns"),
    lower("controlplane.execute_ns", "ns"),
    lower("controlplane.encode_reply_ns", "ns"),
    lower("controlplane.decode_reply_ns", "ns"),
    lower("controlplane.transport_us", "us"),
    lower("controlplane.rtt_p50_us", "us"),
    lower("controlplane.rtt_p99_us", "us"),
    lower("controlplane.exec_p50_us", "us"),
    lower("controlplane.exec_p99_us", "us"),
    higher("controlplane.ops_per_s", "1/s"),
    higher("controlplane.lookups_per_s", "1/s"),
    lower("controlplane.rejected", "count"),
    lower("controlplane.preload_s", "s"),
    // Repetitions the run held, and what the host added to them: the median
    // repetition over the slice floors summed, less one.
    higher("host.repetitions", "count"),
    lower("host.disturbance", "ratio"),
];

/// The five workloads, in the order a whole-set run executes them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ft8-hadoop",
        "FT8-10K, SwitchV2P, Hadoop flows: the figure-regeneration hot path (calendar, arena, TCP, cache hits); also run on 2 shards, whose digest must match",
    ),
    (
        "ft16-alibaba-gw",
        "FT16-400K, NoCache, Alibaba RPCs: every packet detours through a gateway, so caches are bypassed and MappingDb, gateways and ECMP work",
    ),
    (
        "ft32-hadoop",
        "FT32-1M (1 048 576 VMs), SwitchV2P, Hadoop flows: the million-VM tier, where per-VM state and fabric size set speed and memory",
    ),
    (
        "ft8-churn",
        "FT8-10K, SwitchV2P, Hadoop flows whose destinations migrate mid-flow: the write side (MappingDb migrate, invalidation, misdelivery)",
    ),
    (
        "ctl-mixed",
        "CtlServer over loopback TCP, 16 stripes, 1 M mappings, 1 connection, batch 256, closed loop, 20 % invalidate+reinstall: the served path",
    ),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_and_is_used_once() {
        let mut seen = HashSet::new();
        let workloads = WORKLOADS.iter().map(|(n, _)| *n);
        let end_to_end = END_TO_END.iter().map(|m| m.name);
        let per_layer = PER_LAYER.iter().map(|m| m.name);
        for name in workloads.chain(end_to_end).chain(per_layer) {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(is_unit(unit), "bad unit {unit:?}");
        }
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains(['\n', '"', '\\']),
                "why of {name}"
            );
        }
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `sv2p-benchmark manifest > BENCHMARK.json`"
        );
    }
}
