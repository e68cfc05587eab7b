//! `sv2p-ctld` — the V2P control-plane daemon.
//!
//! Serves a [`StripedControlPlane`] over TCP, optionally preloaded with a
//! deterministic mapping table (the same `seed_vip`/`seed_pip` layout
//! `sv2p-ctlbench` queries).
//!
//! ```text
//! sv2p-ctld [--addr HOST:PORT] [--mappings N] [--stripes N]
//! ```
//!
//! A client may idle between requests for as long as it likes; one that
//! stops for ten seconds part-way through a request, or leaves a reply
//! unread that long, is disconnected.

use std::sync::Arc;
use std::time::Duration;

use v2p_controlplane::{
    seed_pip, seed_vip, CtlServer, StripedControlPlane, DEFAULT_ADDR, DEFAULT_STRIPES,
};

struct Args {
    addr: String,
    mappings: u32,
    stripes: usize,
}

fn die(msg: &str) -> ! {
    eprintln!("sv2p-ctld: {msg}");
    std::process::exit(2);
}

/// The value after `flag`, parsed; `what` names it in the error.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: DEFAULT_ADDR.to_string(),
        mappings: 0,
        stripes: DEFAULT_STRIPES,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => out.addr = value(&mut it, flag, "HOST:PORT"),
            "--mappings" => out.mappings = value(&mut it, flag, "an integer"),
            "--stripes" => out.stripes = value(&mut it, flag, "an integer"),
            "--help" | "-h" => {
                println!("usage: sv2p-ctld [--addr HOST:PORT] [--mappings N] [--stripes N]");
                println!("Idle clients are kept; a client that stalls 10 s inside a request,");
                println!("or leaves a reply unread that long, is disconnected.");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    out
}

fn main() {
    let args = parse_args();
    let state = Arc::new(StripedControlPlane::new(args.stripes));
    state.preload((0..args.mappings).map(|i| (seed_vip(i), seed_pip(i))));
    let server = CtlServer::spawn(args.addr.as_str(), Arc::clone(&state))
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", args.addr)));
    // The exact "listening on" line is what scripts (and the CI smoke job)
    // wait for before starting clients.
    println!(
        "sv2p-ctld listening on {} (mappings={} stripes={})",
        server.addr(),
        args.mappings,
        state.stripes()
    );
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
