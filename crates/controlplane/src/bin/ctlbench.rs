//! `sv2p-ctlbench` — closed-loop load generator for the V2P control plane.
//!
//! Drives batched lookups with a configurable invalidation fraction
//! against a freshly started `sv2p-ctld` at `--addr`. Every invalidation is
//! immediately followed, in the same batch, by a reinstall of the same VIP,
//! so the table holds a steady size for the whole run.
//!
//! ```text
//! sv2p-ctlbench [--addr HOST:PORT] [--mappings N] [--ops N] [--batch N]
//!               [--conns N] [--invalidate-pct P] [--seed S]
//! ```
//!
//! Prints a human summary and exits 2 unless the daemon's own counters
//! equal what was sent, no write was rejected, the table kept its size and
//! (on one connection) every lookup hit. (Host-time numbers for the served path come from the
//! `ctl-mixed` workload of `benchmark/run.sh`.)

use std::time::Instant;

use sv2p_simcore::SimRng;
use sv2p_telemetry::profile::Histogram;
use v2p_controlplane::{
    seed_pip, seed_vip, CtlClient, CtlOp, CtlReply, RequestBatch, ServiceStats, DEFAULT_ADDR,
};

struct Args {
    addr: String,
    mappings: u32,
    ops: u64,
    batch: usize,
    conns: usize,
    invalidate_pct: f64,
    seed: u64,
}

fn die(msg: &str) -> ! {
    eprintln!("sv2p-ctlbench: {msg}");
    std::process::exit(2);
}

/// The value after `flag`, parsed; `what` names it in the error.
fn value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: DEFAULT_ADDR.to_string(),
        mappings: 1_000_000,
        ops: 2_000_000,
        batch: 256,
        conns: 1,
        invalidate_pct: 5.0,
        seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => out.addr = value(&mut it, flag, "HOST:PORT"),
            "--mappings" => out.mappings = value(&mut it, flag, "an integer"),
            "--ops" => out.ops = value(&mut it, flag, "an integer"),
            "--batch" => out.batch = value(&mut it, flag, "an integer"),
            "--conns" => out.conns = value(&mut it, flag, "an integer"),
            "--invalidate-pct" => out.invalidate_pct = value(&mut it, flag, "a number"),
            "--seed" => out.seed = value(&mut it, flag, "an integer"),
            "--help" | "-h" => {
                println!(
                    "usage: sv2p-ctlbench [--addr HOST:PORT] [--mappings N] [--ops N] \
                     [--batch N] [--conns N] [--invalidate-pct P] [--seed S]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if out.batch == 0 {
        die("--batch must be at least 1");
    }
    if out.conns == 0 {
        die("--conns must be at least 1");
    }
    if !(0.0..=100.0).contains(&out.invalidate_pct) {
        die("--invalidate-pct must be in [0, 100]");
    }
    out
}

/// What one connection thread did.
#[derive(Default)]
struct ConnTally {
    ops: u64,
    lookups: u64,
    hits: u64,
    invalidates: u64,
    installs: u64,
    rtt_ns: Histogram,
}

fn run_conn(
    addr: std::net::SocketAddr,
    mut rng: SimRng,
    mappings: u32,
    target_ops: u64,
    batch: usize,
    invalidate_pct: f64,
) -> ConnTally {
    let mut client = CtlClient::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let mut tally = ConnTally::default();
    let p_inv = invalidate_pct / 100.0;
    let mut req = RequestBatch::new(0);
    while tally.ops < target_ops {
        req.id += 1;
        req.ops.clear();
        while req.ops.len() < batch {
            let vip_idx = rng.gen_range(0..mappings);
            // Invalidations travel as invalidate+reinstall pairs so the
            // table's size holds steady across the run.
            if req.ops.len() + 1 < batch && rng.chance(p_inv) {
                req.ops.push(CtlOp::Invalidate {
                    vip: seed_vip(vip_idx),
                });
                req.ops.push(CtlOp::Install {
                    vip: seed_vip(vip_idx),
                    pip: seed_pip(vip_idx),
                });
                tally.invalidates += 1;
                tally.installs += 1;
            } else {
                req.ops.push(CtlOp::Lookup {
                    vip: seed_vip(vip_idx),
                });
                tally.lookups += 1;
            }
        }
        let start = Instant::now();
        let rep = client
            .call(&req)
            .unwrap_or_else(|e| die(&format!("call: {e}")));
        tally.rtt_ns.record(start.elapsed().as_nanos() as u64);
        tally.ops += req.ops.len() as u64;
        for r in &rep.replies {
            if matches!(r, CtlReply::Found { .. }) {
                tally.hits += 1;
            }
        }
    }
    tally
}

/// Fetches the server's cumulative [`ServiceStats`].
fn fetch_stats(addr: std::net::SocketAddr) -> ServiceStats {
    let mut client = CtlClient::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let mut req = RequestBatch::new(u64::MAX);
    req.ops.push(CtlOp::Stats);
    let rep = client
        .call(&req)
        .unwrap_or_else(|e| die(&format!("stats: {e}")));
    match rep.replies.first() {
        Some(CtlReply::Stats { stats }) => **stats,
        other => die(&format!("unexpected stats reply: {other:?}")),
    }
}

/// Installs the seed table over the wire (for a daemon started with fewer).
fn preload_remote(addr: std::net::SocketAddr, mappings: u32, batch: usize) -> u64 {
    let mut client = CtlClient::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let mut installed = 0u64;
    let mut i = 0u32;
    while i < mappings {
        let mut req = RequestBatch::new(u64::from(i));
        while req.ops.len() < batch && i < mappings {
            req.ops.push(CtlOp::Install {
                vip: seed_vip(i),
                pip: seed_pip(i),
            });
            i += 1;
        }
        installed += req.ops.len() as u64;
        client
            .call(&req)
            .unwrap_or_else(|e| die(&format!("preload: {e}")));
    }
    installed
}

fn main() {
    let args = parse_args();
    let addr = args
        .addr
        .parse()
        .unwrap_or_else(|_| die("--addr must be HOST:PORT"));

    // The daemon may have started with fewer mappings than the lookups
    // draw from; top the table up over the wire before timing anything.
    let have = fetch_stats(addr).mappings;
    let steady = have.max(u64::from(args.mappings));
    let preload_installs = if have < steady {
        preload_remote(addr, args.mappings, args.batch.max(256))
    } else {
        0
    };

    let per_conn = args.ops.div_ceil(args.conns as u64);
    let master = SimRng::new(args.seed);
    let wall = Instant::now();
    let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.conns)
            .map(|c| {
                let rng = master.fork(c as u64 + 1);
                scope.spawn(move || {
                    run_conn(
                        addr,
                        rng,
                        args.mappings,
                        per_conn,
                        args.batch,
                        args.invalidate_pct,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();

    let mut total = ConnTally::default();
    for t in &tallies {
        total.ops += t.ops;
        total.lookups += t.lookups;
        total.hits += t.hits;
        total.invalidates += t.invalidates;
        total.installs += t.installs;
        total.rtt_ns.merge(&t.rtt_ns);
    }
    let stats = fetch_stats(addr);

    // Cross-validate client tallies against the server's own counters: a
    // codec or accounting bug shows up as a mismatch here.
    let client_installs = total.installs + preload_installs;
    if stats.lookups != total.lookups
        || stats.hits != total.hits
        || stats.invalidates != total.invalidates
        || stats.installs != client_installs
    {
        die(&format!(
            "server counters disagree with client tallies: \
             server lookups={} hits={} invalidates={} installs={}, \
             client lookups={} hits={} invalidates={} installs={}",
            stats.lookups,
            stats.hits,
            stats.invalidates,
            stats.installs,
            total.lookups,
            total.hits,
            total.invalidates,
            client_installs,
        ));
    }
    if stats.rejected != 0 {
        die(&format!("{} writes rejected", stats.rejected));
    }
    // Every invalidate travels with its reinstall, so the table ends the
    // size it started (after the top-up).
    if stats.mappings != steady {
        die(&format!(
            "table drifted: {} mappings, expected {steady}",
            stats.mappings
        ));
    }
    // One connection sees its own reinstall before its next lookup, so every
    // lookup hits. Several can look a VIP up between another connection's
    // invalidate and reinstall; there the counter cross-check above is the
    // whole claim.
    if args.conns == 1 && total.hits != total.lookups {
        die(&format!(
            "{} of {} lookups hit on a steady table",
            total.hits, total.lookups
        ));
    }

    let ops_per_sec = total.ops as f64 / wall_s.max(1e-9);
    let lookups_per_sec = total.lookups as f64 / wall_s.max(1e-9);
    let hit_rate = total.hits as f64 / total.lookups.max(1) as f64;

    println!(
        "sv2p-ctlbench: {addr}, {} mappings, {} conns x batch {}",
        args.mappings, args.conns, args.batch
    );
    println!(
        "  {} ops in {:.3}s  ({:.0} ops/s, {:.0} lookups/s, hit rate {:.4})",
        total.ops, wall_s, ops_per_sec, lookups_per_sec, hit_rate
    );
    println!(
        "  batch RTT p50 {} ns  p99 {} ns   server exec p50 {} ns  p99 {} ns",
        total.rtt_ns.percentile(50.0),
        total.rtt_ns.percentile(99.0),
        stats.exec_p50_ns,
        stats.exec_p99_ns
    );
    println!(
        "  server: epoch {}  mappings {}  rejected {}",
        stats.epoch, stats.mappings, stats.rejected
    );
}
