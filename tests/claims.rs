//! The paper's claims as assertions over the committed `results/*.txt`: who
//! wins, by about what factor, where a crossover falls. Nothing is simulated
//! here — the files are parsed as text — so the suite runs in milliseconds.
//! CI regenerates the files, diffs them byte for byte and then runs this
//! (`.github/workflows/ci.yml`, job `results`), so a change that moves a
//! figure on purpose still has to leave every claim standing. Exact values
//! are the byte-diff's business; orderings and ranges are this file's.

use std::fs;
use std::path::Path;

/// One parsed line: the words before its first number, and every number on
/// it with units and punctuation stripped (`+102.9%`, `(1.85x`, `506 us`).
type Row = (String, Vec<f64>);

const SCHEMES: [&str; 7] = [
    "NoCache",
    "LocalLearning",
    "GwCache",
    "Bluebird",
    "OnDemand",
    "Direct",
    "SwitchV2P",
];

fn parse_row(line: &str) -> Option<Row> {
    let number = |w: &&str| w.trim_matches(|c| "(),+%x".contains(c)).parse::<f64>().ok();
    let words: Vec<&str> = line.split_whitespace().filter(|w| *w != "|").collect();
    let first = words.iter().position(|w| number(w).is_some())?;
    let cells = words[first..].iter().filter_map(number).collect();
    Some((words[..first].join(" "), cells))
}

/// The rows of `results/<file>` under the heading line containing `heading`,
/// down to the next `Figure` / `Section` / `Ablations` heading or the
/// manifest note.
fn section(file: &str, heading: &str) -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let next = ["Figure", "Section", "Ablations", "[manifest]"];
    let rows: Vec<Row> = text
        .lines()
        .skip_while(|l| !l.contains(heading))
        .skip(1)
        .take_while(|l| !next.iter().any(|h| l.starts_with(h)))
        .filter_map(parse_row)
        .collect();
    assert!(!rows.is_empty(), "{file}: no section {heading:?}");
    rows
}

/// The numbers of the first row labelled `label`.
fn cells<'a>(rows: &'a [Row], label: &str) -> &'a [f64] {
    let row = rows.iter().find(|(l, _)| l == label);
    &row.unwrap_or_else(|| panic!("no row {label:?}")).1
}

/// `a[i] > b[i]` at every cache size.
fn above(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x > y)
}

fn hadoop_fct() -> Vec<Row> {
    section("fig5a_hadoop.txt", "avg FCT improvement")
}

#[test]
fn hadoop_fct_switchv2p_leads_the_switch_caches() {
    let t = hadoop_fct();
    let (sv, gw) = (cells(&t, "SwitchV2P"), cells(&t, "GwCache"));
    let ll = cells(&t, "LocalLearning");
    assert!(
        sv.iter().zip(ll).all(|(s, l)| s >= l),
        "{sv:?} vs LocalLearning {ll:?}"
    );
    let last = sv.len() - 1;
    assert!(
        sv[0] > gw[0] && sv[last] > gw[last],
        "{sv:?} vs GwCache {gw:?}"
    );
    // In between GwCache ties or edges ahead, by a rounding step or two.
    assert!(
        sv.iter().zip(gw).all(|(s, g)| *s >= g - 0.05),
        "{sv:?} vs GwCache {gw:?}"
    );
}

#[test]
fn hadoop_fct_direct_is_the_flat_ceiling() {
    let t = hadoop_fct();
    let direct = cells(&t, "Direct");
    assert!(
        direct.iter().all(|&d| d == direct[0]),
        "Direct has no cache: {direct:?}"
    );
    for scheme in SCHEMES {
        let row = cells(&t, scheme);
        assert!(
            row.iter().zip(direct).all(|(v, d)| v <= d),
            "{scheme} {row:?} tops Direct"
        );
    }
}

#[test]
fn hadoop_fct_bluebird_is_slower_than_nocache() {
    let t = hadoop_fct();
    let bluebird = cells(&t, "Bluebird");
    assert!(bluebird.iter().all(|&b| b < 1.0), "{bluebird:?}");
}

#[test]
fn hadoop_fct_switchv2p_passes_ondemand_at_the_largest_cache() {
    let t = hadoop_fct();
    let (sv, od) = (cells(&t, "SwitchV2P"), cells(&t, "OnDemand"));
    assert!(sv.last() > od.last(), "{sv:?} vs OnDemand {od:?}");
}

#[test]
fn alibaba_hit_rate_switchv2p_leads_and_crosses_ondemand() {
    let t = section("fig6_alibaba.txt", "hit rate");
    let sv = cells(&t, "SwitchV2P");
    assert!(
        above(sv, cells(&t, "GwCache")) && above(sv, cells(&t, "LocalLearning")),
        "{sv:?}"
    );
    let od = cells(&t, "OnDemand");
    let crossover = sv.iter().zip(od).position(|(s, o)| s > o);
    assert_eq!(
        crossover,
        Some(3),
        "SwitchV2P passes OnDemand at the 100 % point: {sv:?}"
    );
    assert!(
        above(&sv[3..], &od[3..]),
        "and stays ahead: {sv:?} vs {od:?}"
    );
}

#[test]
fn stretch_orders_the_schemes_and_nocache_moves_nearly_twice_the_bytes() {
    let t = section("fig7_fig8.txt", "Section 5.3 headline numbers");
    // Cells: total MB, multiple of SwitchV2P, % over Direct, average stretch.
    let row = |scheme: &str| cells(&t, &format!("{scheme} total switch bytes"));
    let order = ["NoCache", "GwCache", "LocalLearning", "SwitchV2P", "Direct"];
    let stretch: Vec<f64> = order.iter().map(|s| row(s)[3]).collect();
    assert!(
        stretch.windows(2).all(|w| w[0] > w[1]),
        "{order:?}: {stretch:?}"
    );
    let ratio = row("NoCache")[0] / row("SwitchV2P")[0];
    assert!(
        (1.7..=2.0).contains(&ratio),
        "NoCache / SwitchV2P bytes {ratio:.2}"
    );
}

#[test]
fn timestamp_vector_cuts_invalidations_tenfold_without_delaying_convergence() {
    let t = section("table4.txt", "Table 4");
    // Cells: gateway packets %, latency x, last misdelivery us, misdelivered
    // x, invalidation packets.
    let (with, without) = (
        cells(&t, "SwitchV2P w/ timestamp vector"),
        cells(&t, "SwitchV2P w/o timestamp vector"),
    );
    assert!(
        without[4] >= 10.0 * with[4],
        "invalidations {} vs {}",
        without[4],
        with[4]
    );
    assert!(
        with[2] <= without[2],
        "last misdelivery {} us vs {} us",
        with[2],
        without[2]
    );
    let ondemand = cells(&t, "OnDemand")[3];
    for (label, row) in t.iter().filter(|(l, _)| l.starts_with("SwitchV2P")) {
        assert!(
            ondemand > row[3],
            "OnDemand misdelivers {ondemand}x, {label} {}x",
            row[3]
        );
    }
}

#[test]
fn switchv2p_fct_is_flat_in_the_gateway_count_while_nocache_quadruples() {
    let t = section("fig9.txt", "Figure 9");
    // Cells: gateways, average FCT us, first packet us, hit rate %, drops.
    let fct = |scheme: &str, gws: f64| {
        let at_gws: Vec<Row> = t.iter().filter(|(_, c)| c[0] == gws).cloned().collect();
        cells(&at_gws, scheme)[1]
    };
    let (few, many) = (fct("SwitchV2P", 4.0), fct("SwitchV2P", 40.0));
    assert!(
        (few / many - 1.0).abs() <= 0.03,
        "SwitchV2P {few} us at 4, {many} us at 40"
    );
    let growth = fct("NoCache", 4.0) / fct("NoCache", 40.0);
    assert!(
        growth >= 4.0,
        "NoCache grows only {growth:.2}x from 40 to 4 gateways"
    );
}

#[test]
fn hits_concentrate_at_the_tors_and_first_packets_are_served_higher_up() {
    let t = section("table5.txt", "Table 5");
    // Cells: core, spine, ToR share of all hits %, then of first-packet hits.
    for dataset in ["Hadoop", "WebSearch"] {
        let tor = cells(&t, dataset)[2];
        assert!(
            tor >= 85.0,
            "{dataset}: ToRs serve only {tor} % of the hits"
        );
    }
    let bursts = cells(&t, "Microbursts");
    assert!(
        bursts[1] > bursts[2],
        "Microbursts spine {} % vs ToR {} %",
        bursts[1],
        bursts[2]
    );
    let hadoop = cells(&t, "Hadoop");
    assert!(
        hadoop[3] + hadoop[4] > 50.0,
        "Hadoop first packets above the ToR: {hadoop:?}"
    );
    // The one exact value here: the paper's Video row is 0 / 0 / 0 too.
    assert_eq!(cells(&t, "Video")[3..], [0.0, 0.0, 0.0]);
}

#[test]
fn switchv2p_scales_with_the_fabric_while_local_learning_decays() {
    let t = section("fig10.txt", "Figure 10");
    // Cells: pods, switches, average FCT us, first packet us, hit rate %.
    let column = |scheme: &str, i: usize| -> Vec<f64> {
        t.iter()
            .filter(|(l, _)| l == scheme)
            .map(|(_, c)| c[i])
            .collect()
    };
    let sv = column("SwitchV2P", 2);
    for other in ["LocalLearning", "GwCache"] {
        assert!(
            above(&column(other, 2), &sv),
            "FCT: {other} vs SwitchV2P {sv:?}"
        );
    }
    let ll = column("LocalLearning", 4);
    assert!(
        ll.windows(2).all(|w| w[0] > w[1]),
        "LocalLearning hit rate {ll:?}"
    );
    let hit = column("SwitchV2P", 4);
    let max = hit.iter().copied().fold(0.0, f64::max);
    assert!(
        hit.iter().all(|h| max - h <= 10.0),
        "SwitchV2P hit rate {hit:?}"
    );
}

#[test]
fn every_mechanism_earns_its_hit_rate_and_spillover_earns_the_most() {
    let t = section("ablations.txt", "Ablations on Hadoop");
    // Cells: hit rate %, average FCT us, first packet us, learning packets,
    // retransmissions.
    let hit = |variant: &str| cells(&t, variant)[0];
    let full = hit("full design");
    for (variant, row) in &t {
        assert!(
            row[0] <= full + 0.5,
            "{variant} {} % vs full design {full} %",
            row[0]
        );
    }
    let lost = |variant: &str| full - hit(variant);
    let spill = lost("w/o spillover");
    assert!(
        spill > lost("w/o promotion") && spill > lost("w/o learning packets"),
        "{t:?}"
    );
    let lowest = t.iter().map(|(_, c)| c[0]).fold(f64::MAX, f64::min);
    assert_eq!(hit("core-heavy memory (1:1:4)"), lowest, "{t:?}");
}
