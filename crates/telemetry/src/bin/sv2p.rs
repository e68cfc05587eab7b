//! `sv2p`: inspect the artifacts a run wrote — a telemetry trace
//! (`--telemetry DIR`) or an engine self-profile (`--profile DIR`).
//!
//! ```sh
//! sv2p trace run.events.jsonl                      # per-kind summary
//! sv2p trace run.events.jsonl --flow 12            # all events of flow 12
//! sv2p trace run.events.jsonl --switch 3           # all events at node 3
//! sv2p trace run.events.jsonl --kind cache_lookup  # one event kind
//! sv2p trace run.events.jsonl --path 12            # flow 12's first packet,
//!                                                  # hop by hop with latency
//! sv2p trace run.events.jsonl --path 12 --pkt 900  # a specific packet
//! sv2p profile run.profile.jsonl                   # phase table + histograms
//! sv2p profile run.profile.jsonl --top 3           # top-3 histogram tails only
//! sv2p profile run.profile.jsonl --check           # validate; exit 1 on
//!                                                  # malformed or insane fracs
//! ```
//!
//! `trace` filters compose (AND) and print JSONL, so output can be piped
//! back into `sv2p trace` or any JSON tool. `profile` prints a
//! phase-breakdown table sorted by wall-clock share and histogram tails;
//! `--check` validates what the CI smoke job needs: the report is whole
//! (its summary row counts the rows above it), phase fractions are each in
//! `[0, 1]`, and they sum to at most 1.05.
//!
//! Exit status: 0 on success; 1 when the file is unreadable or foreign, the
//! flow is not in the trace, or `--check` finds a violation; 2 on a command
//! line it does not know.

use std::io::Write;
use std::process::ExitCode;

use sv2p_telemetry::inspect::{format_path, kind_counts, parse_events, reconstruct_path};
use sv2p_telemetry::json::JsonValue;
use sv2p_telemetry::profile::{ProfileDoc, Row, SCHEMA};
use sv2p_telemetry::{EventKind, TraceEvent};

#[derive(Clone, Copy)]
enum Cmd {
    Trace,
    Profile,
}

struct Args {
    cmd: Cmd,
    file: String,
    // trace
    flow: Option<u64>,
    switch: Option<u32>,
    kind: Option<EventKind>,
    path: Option<u64>,
    pkt: Option<u64>,
    summary: bool,
    // profile
    top: usize,
    check: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sv2p trace <run.events.jsonl> \
         [--summary] [--flow N] [--switch N] [--kind K] [--path FLOW] [--pkt N]\n       \
         sv2p profile <run.profile.jsonl> [--top K] [--check]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut it = std::env::args().skip(1);
    let cmd = match it.next().as_deref() {
        Some("trace") => Cmd::Trace,
        Some("profile") => Cmd::Profile,
        Some("--help" | "-h") | None => return Err(usage()),
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            return Err(usage());
        }
    };
    let mut args = Args {
        cmd,
        file: String::new(),
        flow: None,
        switch: None,
        kind: None,
        path: None,
        pkt: None,
        summary: false,
        top: usize::MAX,
        check: false,
    };
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, ExitCode> {
            it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                usage()
            })
        };
        match (cmd, a.as_str()) {
            (Cmd::Trace, "--summary") => args.summary = true,
            (Cmd::Trace, "--flow") => args.flow = Some(num("--flow")?),
            (Cmd::Trace, "--switch") => args.switch = Some(num("--switch")? as u32),
            (Cmd::Trace, "--path") => args.path = Some(num("--path")?),
            (Cmd::Trace, "--pkt") => args.pkt = Some(num("--pkt")?),
            (Cmd::Trace, "--kind") => {
                let k = it.next().unwrap_or_default();
                args.kind = Some(EventKind::parse(&k).ok_or_else(|| {
                    let names: Vec<&str> = EventKind::ALL.iter().map(|k| k.as_str()).collect();
                    eprintln!("unknown kind {k:?}; one of: {}", names.join(", "));
                    usage()
                })?);
            }
            (Cmd::Profile, "--top") => args.top = num("--top")? as usize,
            (Cmd::Profile, "--check") => args.check = true,
            (_, "--help" | "-h") => return Err(usage()),
            _ if args.file.is_empty() && !a.starts_with('-') => args.file = a,
            (_, other) => {
                eprintln!("unknown argument {other:?}");
                return Err(usage());
            }
        }
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Reads and parses the file, then writes the requested view to `out`. An
/// `Err` is an I/O failure on `out` — `main` treats a broken pipe
/// (`… | head`) as a normal early exit.
fn run(args: &Args, out: &mut impl Write) -> std::io::Result<ExitCode> {
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return Ok(ExitCode::FAILURE);
        }
    };
    match args.cmd {
        Cmd::Trace => {
            let events = parse_events(&text);
            if events.is_empty() {
                eprintln!("{}: no parseable trace events", args.file);
                return Ok(ExitCode::FAILURE);
            }
            trace(args, &events, out)
        }
        Cmd::Profile => match ProfileDoc::parse(&text) {
            Some(doc) if args.check => check(args, &doc, out),
            Some(doc) => render(&doc, args.top, out).map(|()| ExitCode::SUCCESS),
            None => {
                eprintln!("{}: not a {SCHEMA} report", args.file);
                Ok(ExitCode::FAILURE)
            }
        },
    }
}

fn trace(args: &Args, events: &[TraceEvent], out: &mut impl Write) -> std::io::Result<ExitCode> {
    if let Some(flow) = args.path {
        return match reconstruct_path(events, flow, args.pkt) {
            Some(report) => {
                write!(out, "{}", format_path(&report))?;
                Ok(ExitCode::SUCCESS)
            }
            None => {
                eprintln!("no events for flow {flow} (pkt {:?})", args.pkt);
                Ok(ExitCode::FAILURE)
            }
        };
    }

    let filtering = args.flow.is_some() || args.switch.is_some() || args.kind.is_some();
    if filtering && !args.summary {
        for e in events {
            if args.flow.is_some_and(|f| e.flow != Some(f)) {
                continue;
            }
            if args.switch.is_some_and(|n| e.node != Some(n)) {
                continue;
            }
            if args.kind.is_some_and(|k| e.kind != k) {
                continue;
            }
            writeln!(out, "{}", e.to_json())?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Summary (the default).
    writeln!(out, "{}: {} events", args.file, events.len())?;
    for (kind, n) in kind_counts(events) {
        writeln!(out, "  {kind:<16} {n}")?;
    }
    let t0 = events.iter().map(|e| e.t_ns).min().unwrap_or(0);
    let t1 = events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    writeln!(out, "  span: {t0} .. {t1} ns ({} us)", (t1 - t0) / 1000)?;
    Ok(ExitCode::SUCCESS)
}

fn get_u64(row: &Row, k: &str) -> u64 {
    row.get(k).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(row: &Row, k: &str) -> f64 {
    row.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn get_str<'a>(row: &'a Row, k: &str) -> &'a str {
    row.get(k).and_then(JsonValue::as_str).unwrap_or("?")
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// `profile --check`: validates the invariants the CI smoke job asserts,
/// reporting every violation.
fn check(args: &Args, doc: &ProfileDoc, out: &mut impl Write) -> std::io::Result<ExitCode> {
    let mut bad = Vec::new();
    if doc.summary.is_empty() {
        bad.push("missing summary row".into());
    } else {
        for (k, rows) in [("phases", doc.phases.len()), ("hists", doc.hists.len())] {
            let said = get_u64(&doc.summary, k);
            if said != rows as u64 {
                bad.push(format!("summary counts {said} {k}, the report has {rows}"));
            }
        }
    }
    if doc.phases.is_empty() {
        bad.push("no phase rows".into());
    }
    let mut frac_sum = 0.0;
    for p in &doc.phases {
        let f = get_f64(p, "frac");
        if !(0.0..=1.0).contains(&f) {
            bad.push(format!(
                "phase {} frac {f} outside [0,1]",
                get_str(p, "name")
            ));
        }
        frac_sum += f;
    }
    if frac_sum > 1.05 {
        bad.push(format!("phase fracs sum to {frac_sum:.3} > 1.05"));
    }
    if bad.is_empty() {
        let (phases, hists) = (doc.phases.len(), doc.hists.len());
        writeln!(out, "{}: ok ({phases} phases, {hists} hists)", args.file)?;
        return Ok(ExitCode::SUCCESS);
    }
    for b in &bad {
        eprintln!("{}: {b}", args.file);
    }
    Ok(ExitCode::FAILURE)
}

fn render(doc: &ProfileDoc, top: usize, out: &mut impl Write) -> std::io::Result<()> {
    let m = &doc.meta;
    writeln!(
        out,
        "{} [{}] seed={} events={} host_cores={} peak_rss={:.1} MiB",
        get_str(m, "bin"),
        get_str(m, "label"),
        get_u64(m, "seed"),
        get_u64(m, "events_executed"),
        get_u64(m, "host_cores"),
        get_u64(m, "peak_rss_bytes") as f64 / (1024.0 * 1024.0),
    )?;
    let run_ns = get_u64(m, "run_wall_ns");
    writeln!(
        out,
        "run wall-clock: {} (timings are non-deterministic)",
        fmt_ns(run_ns)
    )?;

    // Phase table, sorted by wall-clock share descending.
    writeln!(
        out,
        "\n  {:<18} {:>12} {:>12} {:>7}",
        "phase", "calls", "total", "frac"
    )?;
    let mut phases: Vec<&Row> = doc.phases.iter().collect();
    phases.sort_by(|a, b| {
        get_f64(b, "frac")
            .partial_cmp(&get_f64(a, "frac"))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for p in &phases {
        writeln!(
            out,
            "  {:<18} {:>12} {:>12} {:>6.1}%",
            get_str(p, "name"),
            get_u64(p, "calls"),
            fmt_ns(get_u64(p, "total_ns")),
            get_f64(p, "frac") * 100.0,
        )?;
    }

    // Histogram tails.
    if !doc.hists.is_empty() {
        writeln!(
            out,
            "\n  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        )?;
        for h in doc.hists.iter().take(top) {
            writeln!(
                out,
                "  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
                get_str(h, "name"),
                get_u64(h, "count"),
                get_u64(h, "p50"),
                get_u64(h, "p90"),
                get_u64(h, "p99"),
                get_u64(h, "max"),
            )?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match run(&args, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("write failed: {e}");
            ExitCode::FAILURE
        }
    }
}
