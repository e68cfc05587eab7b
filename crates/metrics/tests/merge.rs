//! The property a sharded run rests on: a sequence of counter operations
//! recorded into one [`Counters`], or dealt over k ledgers that are then
//! merged in any order, gives the same ledger — and so the same summary.

use proptest::prelude::*;
use sv2p_metrics::{Counters, DropCause, Layer, Metrics, MigrationRef};
use sv2p_packet::SwitchTag;
use sv2p_simcore::SimTime;

const SWITCHES: usize = 5;
const LAYERS: [Layer; 3] = [Layer::Tor, Layer::Spine, Layer::Core];
const CAUSES: [DropCause; 5] = [
    DropCause::Queue,
    DropCause::Unroutable,
    DropCause::Blackout,
    DropCause::Loss,
    DropCause::GatewayShed,
];
/// Operation kinds `0..MIGRATE` write a ledger; `MIGRATE` writes the
/// master's migration count and the "latest migration of this VIP" table.
const MIGRATE: u8 = 13;

/// Applies counter operation `kind` to `c` at instant `now`. `latest` is
/// the table the engine keeps beside its follow-me rules, over four VIPs.
fn apply(c: &mut Counters, latest: &[Option<MigrationRef>; 4], kind: u8, a: u32, now: SimTime) {
    match kind {
        0 => c.record_switch_bytes(SwitchTag((a as usize % SWITCHES) as u16), a >> 8),
        1 => c.record_cache_hit(LAYERS[a as usize % 3], a & 4 == 0),
        2 => c.record_data_sent(now),
        3 => c.record_gateway_packet(now),
        4 => c.record_drop(CAUSES[a as usize % 5]),
        5 => drop(c.record_stale_hit(latest[a as usize % 4], now)),
        6 => c.record_misdelivery(now),
        7 => c.learning_packets += 1,
        8 => c.invalidation_packets += 1,
        9 => c.spillover_inserts += 1,
        10 => c.promotion_inserts += 1,
        11 => c.reordered_segments += a as u64 % 7,
        12 => c.retransmissions += a as u64 % 7,
        _ => unreachable!("not a counter operation"),
    }
}

proptest! {
    #[test]
    fn merging_k_ledgers_equals_recording_into_one(
        // (kind, operand, instant within the first ten windows, ledger)
        ops in proptest::collection::vec(
            (0..=MIGRATE, any::<u32>(), 0..1_000_000u64, 0..4usize),
            0..400,
        ),
        k in prop_oneof![Just(2usize), Just(4usize)],
        first in 0..4usize,
    ) {
        let mut master = Metrics::new();
        // VIP 3 never migrates; 0..3 migrate zero, one or several times, so
        // stale hits land before, after and without a migration.
        let mut latest = [None; 4];
        let mut one = Counters::new(SWITCHES);
        let mut parts = vec![Counters::new(SWITCHES); k];
        for (kind, a, ns, ledger) in ops {
            let now = SimTime::from_nanos(ns);
            if kind == MIGRATE {
                latest[a as usize % 3] = Some(master.record_migration(now));
                continue;
            }
            apply(&mut one, &latest, kind, a, now);
            apply(&mut parts[ledger % k], &latest, kind, a, now);
        }
        let mut merged = Counters::default();
        for i in 0..k {
            merged.merge(&parts[(first + i) % k]);
        }
        // The ages are a multiset: only their sorted order is ever read.
        one.stale_age_ns.sort_unstable();
        merged.stale_age_ns.sort_unstable();
        prop_assert_eq!(&merged, &one);
        let summary = |c: &Counters| format!("{:?}", master.summary(c, "x"));
        prop_assert_eq!(summary(&merged), summary(&one));
    }
}
