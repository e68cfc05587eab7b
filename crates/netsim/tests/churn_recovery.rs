//! Stale-mapping recovery under churn: migration waves leave stale cache
//! entries behind, and SwitchV2P's misdelivery-driven invalidation must
//! correct every one of them while traffic keeps flowing.

use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, FlowKind, FlowSpec, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use switchv2p::{SwitchV2P, SwitchV2PConfig};

/// TCP flows all aimed at a handful of destination VMs, starting at
/// `base_us + 5·i`, so their mappings are cached fleet-wide.
fn convergent_flows(
    vms: usize,
    dsts: &[usize],
    n: usize,
    base_us: u64,
    bytes: u64,
) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec {
            src_vm: (i * 7 + 1) % vms,
            dst_vm: dsts[i % dsts.len()],
            start: SimTime::from_micros(base_us + 5 * i as u64),
            kind: FlowKind::Tcp { bytes },
        })
        .filter(|f| f.src_vm != f.dst_vm)
        .collect()
}

/// Every stale mapping a migration wave creates is corrected before the run
/// drains: no cached `(switch, vip, pip)` line disagrees with the mapping
/// database at end-of-run, while the wave demonstrably produced stale hits
/// (so the assertion is not vacuous).
#[test]
fn no_stale_entry_survives_a_migration_wave() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let mut sim = Engine::new(SimConfig::default(), &ft, &strategy, 4096, 4);

    let n_servers = sim.topology().servers().count();
    let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
    let dsts = [3usize, 11, 19, 27];
    // Pre-wave traffic seeds caches fleet-wide; post-wave flows start
    // unresolved, hit the now-stale switch entries, and trigger the
    // misdelivery → invalidation machinery. The wide post-wave fan-in keeps
    // correcting until every switch the earlier traffic touched is clean.
    sim.add_flows(convergent_flows(
        sim.placement().len(),
        &dsts,
        24,
        0,
        120_000,
    ));
    sim.add_flows(convergent_flows(
        sim.placement().len(),
        &dsts,
        96,
        600,
        60_000,
    ));

    // The wave: every hot destination moves to the far end of the fabric at
    // 400 µs, while its flows are mid-transfer.
    for (i, &vm) in dsts.iter().enumerate() {
        let target = servers[(n_servers - 1 - i) % n_servers];
        assert_ne!(
            target.0,
            sim.placement().node_of(vm),
            "wave must move the VM"
        );
        sim.add_migration(sv2p_vnet::Migration::new(
            SimTime::from_micros(400 + 5 * i as u64),
            sim.placement().vip_of(vm),
            target.0,
            target.1,
        ));
    }
    sim.run();

    let s = sim.summary();
    assert_eq!(s.migrations, dsts.len() as u64);
    assert!(
        s.stale_cache_hits > 0,
        "the wave must actually expose stale entries (got none — scenario is vacuous)"
    );
    assert!(
        s.recovery_max_us > 0.0,
        "stale hits imply a non-zero recovery window"
    );
    let stale = sim.stale_cache_entries();
    assert!(
        stale.is_empty(),
        "stale mappings survived to end-of-run: {stale:?}"
    );
}

/// Churn timeline marks surface in both the metrics counters and the
/// telemetry stream.
#[test]
fn churn_marks_hit_metrics_and_telemetry() {
    let strategy = SwitchV2P::new(SwitchV2PConfig::default());
    let ft = FatTreeConfig::scaled_ft8(2);
    let cfg = SimConfig {
        telemetry: true,
        ..SimConfig::default()
    };
    let mut sim = Engine::new(cfg, &ft, &strategy, 1024, 4);
    let servers: Vec<_> = sim.topology().servers().map(|n| (n.id, n.pip)).collect();
    let spec = ChurnSpec::medium(3, 2_000);
    let plan = ChurnPlan::generate(&spec, sim.placement(), &servers);
    let arrivals = plan
        .marks
        .iter()
        .filter(|m| matches!(m, sv2p_netsim::ChurnMark::Arrival { .. }))
        .count() as u64;
    let waves = plan
        .marks
        .iter()
        .filter(|m| matches!(m, sv2p_netsim::ChurnMark::Wave { .. }))
        .count() as u64;
    assert!(
        arrivals > 0 && waves > 0,
        "medium churn must mark arrivals and waves"
    );
    sim.apply_churn_plan(&plan);
    sim.run();

    let s = sim.summary();
    assert_eq!(s.churn_arrivals, arrivals);
    assert_eq!(s.migration_waves, waves);
    assert_eq!(s.migrations, plan.migrations.len() as u64);
    let jsonl = sim.tracer().render_events_jsonl();
    assert!(
        jsonl.contains("\"churn_arrival\""),
        "arrival marks must be traced"
    );
    assert!(
        jsonl.contains("\"migration_wave\""),
        "wave marks must be traced"
    );
}
