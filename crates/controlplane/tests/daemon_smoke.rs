//! The two binaries interoperate: `sv2p-ctlbench` drives a real `sv2p-ctld`
//! process over TCP and passes its own checks (server counters equal client
//! tallies, nothing rejected, table size steady, every lookup a hit on one
//! connection).
//! `served_equiv.rs` covers the same library in-process; only this test
//! runs the daemon's argument parsing, preload and `listening on` line.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// A running `sv2p-ctld`, killed when dropped so a failed assertion does
/// not leave it behind.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port with `mappings`
    /// preloaded and waits for the line that names the port.
    fn start(mappings: u32) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_sv2p-ctld"))
            .args(["--addr", "127.0.0.1:0", "--mappings", &mappings.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sv2p-ctld");
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(daemon.child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the daemon's first line");
        daemon.addr = line
            .strip_prefix("sv2p-ctld listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        daemon
    }

    /// Runs the load generator against this daemon over `conns` connections
    /// and asserts it passed.
    fn drive(&self, mappings: u32, conns: u32) {
        let out = Command::new(env!("CARGO_BIN_EXE_sv2p-ctlbench"))
            .args(["--addr", &self.addr])
            .args(["--mappings", &mappings.to_string(), "--ops", "100000"])
            .args(["--conns", &conns.to_string()])
            .output()
            .expect("run sv2p-ctlbench");
        assert!(
            out.status.success(),
            "sv2p-ctlbench failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn ctlbench_passes_against_a_preloaded_daemon() {
    Daemon::start(20_000).drive(20_000, 1);
}

#[test]
fn ctlbench_tops_up_a_daemon_that_started_with_fewer_mappings() {
    Daemon::start(5_000).drive(20_000, 1);
}

/// Connections race each other's invalidate-reinstall pairs, so a lookup may
/// miss; the counters must still agree and the table must end full.
#[test]
fn ctlbench_passes_over_several_connections() {
    Daemon::start(20_000).drive(20_000, 4);
}
