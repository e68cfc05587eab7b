//! A peer's frame length is a claim, not an allocation: four peers that
//! announce a maximum-length frame, send one byte of it and stall must not
//! make the server hold their frames, and a well-behaved client is still
//! answered beside them.
//!
//! Its own test binary, so the resident set it reads is this test's alone.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sv2p_packet::{Pip, Vip};
use v2p_controlplane::api::{CtlOp, CtlReply, RequestBatch};
use v2p_controlplane::state::StripedControlPlane;
use v2p_controlplane::transport::{CtlClient, CtlServer};
use v2p_controlplane::wire::MAX_FRAME;

/// This process's resident set (`VmRSS`), in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("a VmRSS line");
    kb * 1024
}

#[test]
fn stalled_max_length_frames_pin_no_memory() {
    let state = Arc::new(StripedControlPlane::new(4));
    state.preload((0..64u32).map(|i| (Vip(i), Pip(1_000 + i))));
    let mut server = CtlServer::spawn("127.0.0.1:0", state).expect("bind");
    let before = rss_bytes();

    let stalled: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut peer = TcpStream::connect(server.addr()).expect("connect");
            peer.write_all(&(MAX_FRAME as u32).to_le_bytes())
                .expect("length");
            peer.write_all(&[0xC7]).expect("one byte of the body");
            peer
        })
        .collect();
    // The handlers have read the lengths and the byte, and wait for more.
    std::thread::sleep(Duration::from_millis(500));
    let grown = rss_bytes().saturating_sub(before);
    assert!(
        grown < 32 << 20,
        "4 stalled peers grew the server by {} MiB",
        grown >> 20
    );

    let mut client = CtlClient::connect(server.addr()).expect("connect");
    let mut req = RequestBatch::new(1);
    req.ops.push(CtlOp::Lookup { vip: Vip(5) });
    let rep = client
        .call(&req)
        .expect("a well-behaved client is answered");
    assert_eq!(rep.replies, vec![CtlReply::Found { pip: Pip(1_005) }]);

    drop(stalled);
    server.shutdown();
}
