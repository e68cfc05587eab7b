//! Drives the built command the way a user and the driver do.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use sv2p_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Runs the command in a scratch directory of its own (it writes
/// `benchmark/out` under the directory it is started in).
fn run(dir: &str, args: &[&str]) -> Output {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_sv2p-benchmark"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("start sv2p-benchmark")
}

/// The metric names of a contract line: the keys of its `metrics` object.
fn metric_names(line: &str) -> BTreeSet<String> {
    let (_, metrics) = line.split_once("\"metrics\": {").expect("a metrics object");
    // Every piece but the last ends with an opening quote and a name.
    let pieces: Vec<&str> = metrics.split("\": {\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .filter_map(|piece| piece.rsplit_once('"').map(|(_, name)| name.to_string()))
        .collect()
}

fn declared(names: impl Iterator<Item = &'static str>) -> BTreeSet<String> {
    names.map(str::to_string).collect()
}

#[test]
fn unknown_workload_exits_2_without_a_result() {
    let out = run(
        "unknown",
        &["--workload", "no-such-workload", "--seed", "1"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn smoke_set_passes_every_check_and_prints_every_declared_name() {
    let start = Instant::now();
    let out = run("smoke", &["--smoke", "--trace", "--seed", "3"]);
    let elapsed = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(elapsed < 30.0, "smoke set took {elapsed:.1} s");
    assert!(
        !stdout.contains("CHECK FAILED") && !stdout.contains("SKIPPED"),
        "{stdout}"
    );

    // Each workload prints each declared metric, and nothing undeclared.
    let all = declared(
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name)),
    );
    let sections: Vec<&str> = stdout.split("\n== ").skip(1).collect();
    assert_eq!(sections.len(), WORKLOADS.len());
    for (section, (workload, _)) in sections.iter().zip(WORKLOADS) {
        assert!(section.starts_with(workload), "{section}");
        let printed: BTreeSet<String> = section
            .lines()
            .skip(1)
            .filter(|l| l.starts_with("   ") && !l.trim_start().starts_with("attempted"))
            .filter_map(|l| l.split_whitespace().next())
            .filter(|name| name.contains(['_', '.']))
            .map(str::to_string)
            .collect();
        assert_eq!(printed, all, "names printed for {workload}");
        assert!(section.contains("failed 0 "), "{section}");
    }
    // The first workload also ran on two shards (and was held to the
    // one-shard digest, or a check would have failed above).
    let windows = sections[0]
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("netsim.sharded.windows"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok());
    assert!(windows.is_some_and(|w| w > 0.0), "{}", sections[0]);

    // Every workload left its span file behind.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke/benchmark/out");
    for (workload, _) in WORKLOADS {
        let spans = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.jsonl")))
            .expect("span file");
        assert!(
            spans.lines().count() > 3 && spans.contains("\"parent\":-1"),
            "{workload}"
        );
    }
}

#[test]
fn contract_line_carries_exactly_the_declared_metrics() {
    for (trace, names) in [
        ("0", declared(END_TO_END.iter().map(|m| m.name))),
        ("1", declared(PER_LAYER.iter().map(|m| m.name))),
    ] {
        for workload in ["ft8-churn", "ctl-mixed"] {
            let out = run(
                &format!("contract-{workload}-{trace}"),
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ],
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{stdout}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            assert_eq!(metric_names(line), names, "{workload} --trace {trace}");
        }
    }
}
