//! The `sv2p` inspector as a process: both subcommands read the artifacts
//! the library writes, and the exit status tells usage errors (2) from
//! unreadable or foreign files (1).
//! The library's unit tests cover parsing and path reconstruction
//! in-process; only this test runs the binary's argument loop, its
//! read-and-parse step and its exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use sv2p_telemetry::profile::SCHEMA;
use sv2p_telemetry::{
    Cause, EventKind, HistKind, Layer, Phase, ProfileMeta, Profiler, TelemetryConfig, TraceEvent,
    Tracer,
};

/// Writes a small run's `events.jsonl` and `profile.jsonl` into a fresh
/// directory: flow 7's packet 100 misses at a ToR, detours through a
/// gateway and is delivered; flow 8's packet is shed.
fn artifacts(test: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sv2p_inspector_{test}_{}", std::process::id()));
    let mut tracer = Tracer::new(TelemetryConfig::enabled());
    let at = |t, kind, node| TraceEvent::new(t, kind).packet(7, 100).at_node(node);
    tracer.record(at(0, EventKind::PacketSent, 0));
    tracer.record(TraceEvent {
        layer: Some(Layer::Tor),
        hit: Some(false),
        ..at(10, EventKind::CacheLookup, 1)
    });
    tracer.record(at(30, EventKind::GatewayIngress, 9));
    tracer.record(at(70, EventKind::GatewayDone, 9));
    tracer.record(at(120, EventKind::Delivery, 5));
    tracer.record(TraceEvent {
        cause: Some(Cause::GatewayShed),
        ..TraceEvent::new(130, EventKind::Drop).packet(8, 200).at_node(9)
    });
    let (events, _) = tracer.write_to_dir(&dir, "smoke").expect("write the trace");

    let mut prof = Profiler::new(true);
    prof.phase_add(Phase::Pop, 2_000);
    prof.phase_add(Phase::LinkArrival, 5_000);
    prof.record(HistKind::CalendarLen, 12);
    prof.add_run_ns(10_000);
    let meta = ProfileMeta {
        bin: "smoke".into(),
        label: "smoke.SwitchV2P".into(),
        seed: 1,
        events_executed: 6,
        host_cores: 1,
        peak_rss_bytes: 0,
    };
    let profile = dir.join("smoke.profile.jsonl");
    std::fs::write(&profile, prof.render_report(&meta)).expect("write the profile");
    (dir, events, profile)
}

/// Runs `sv2p` and returns (exit code, stdout, stderr).
fn sv2p(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sv2p"))
        .args(args)
        .output()
        .expect("run sv2p");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

#[test]
fn both_subcommands_read_what_the_library_writes() {
    let (dir, events, profile) = artifacts("views");

    let (code, out, _) = sv2p(&["trace", arg(&events), "--summary"]);
    assert_eq!(code, 0);
    assert!(out.contains(": 6 events"), "{out}");
    assert!(out.contains("gateway_ingress  1"), "{out}");

    let (code, out, _) = sv2p(&["trace", arg(&events), "--path", "7"]);
    assert_eq!(code, 0);
    assert!(out.contains("flow 7 pkt 100: 5 events, gateway_detour=true"), "{out}");
    assert!(out.contains("total send->delivery latency: 120 ns"), "{out}");

    // A filtered event is re-emitted whole, cause included.
    let (code, out, _) = sv2p(&["trace", arg(&events), "--kind", "drop"]);
    assert_eq!(code, 0);
    assert!(out.contains(r#""cause":"gateway-shed""#), "{out}");

    let (code, out, _) = sv2p(&["profile", arg(&profile)]);
    assert_eq!(code, 0);
    assert!(out.contains("smoke [smoke.SwitchV2P] seed=1"), "{out}");
    assert!(out.contains("link_arrival"), "{out}");
    assert!(out.contains("calendar_len"), "{out}");

    let (code, out, _) = sv2p(&["profile", arg(&profile), "--check"]);
    assert_eq!(code, 0);
    assert!(out.contains("ok (2 phases, 1 hists)"), "{out}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn an_unknown_command_line_exits_2_with_usage() {
    let (dir, events, profile) = artifacts("usage");
    for args in [
        vec![],
        vec!["audit", arg(&events)],
        vec![arg(&events)],
        vec!["trace", arg(&events), "--check"],
        vec!["profile", arg(&profile), "--path", "7"],
        vec!["trace", arg(&events), "--flow"],
        vec!["trace", arg(&events), "--kind", "nope"],
    ] {
        let (code, out, err) = sv2p(&args);
        assert_eq!(code, 2, "{args:?}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(err.contains("usage: sv2p trace"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_truncated_or_foreign_file_exits_1() {
    let (dir, events, profile) = artifacts("foreign");
    // Each subcommand refuses the other's artifact and a missing file.
    assert_eq!(sv2p(&["profile", arg(&events)]).0, 1);
    assert_eq!(sv2p(&["trace", arg(&profile)]).0, 1);
    assert_eq!(sv2p(&["trace", arg(&dir.join("absent.jsonl"))]).0, 1);

    // A report cut off before its summary row parses but fails the check,
    // and so does one that lost a row above it.
    let text = std::fs::read_to_string(&profile).expect("read the profile");
    let cut = dir.join("cut.profile.jsonl");
    std::fs::write(&cut, &text[..text.rfind("{\"row\":\"summary\"").expect("summary row")])
        .expect("write the cut profile");
    let (code, _, err) = sv2p(&["profile", arg(&cut), "--check"]);
    assert_eq!(code, 1);
    assert!(err.contains("missing summary row"), "{err}");
    let hist = text.find("{\"row\":\"hist\"").expect("hist row");
    let end = hist + text[hist..].find('\n').expect("a line") + 1;
    std::fs::write(&cut, format!("{}{}", &text[..hist], &text[end..])).expect("write");
    let (code, _, err) = sv2p(&["profile", arg(&cut), "--check"]);
    assert_eq!(code, 1);
    assert!(
        err.contains("summary counts 1 hists, the report has 0"),
        "{err}"
    );

    // A report of another schema is foreign.
    let other = dir.join("other.profile.jsonl");
    std::fs::write(&other, text.replace(SCHEMA, "some-other/v1")).expect("write");
    let (code, _, err) = sv2p(&["profile", arg(&other)]);
    assert_eq!(code, 1);
    assert!(err.contains(&format!("not a {SCHEMA} report")), "{err}");

    std::fs::remove_dir_all(dir).ok();
}
