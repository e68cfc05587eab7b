//! `sv2p-benchmark`: the one command behind `BENCHMARK.json`.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                  [--sets 2] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload and ends its output with the one
//! JSON object the driver reads. Without, it runs all five, prints every
//! metric by name and unit, and with `--sets 2` runs the set twice and fails
//! if the two figures of one end-to-end metric are further apart than its
//! bound.
//! `cell` is what the command runs as child processes of itself: the
//! repetitions of one workload (`cell.rs`);
//! `manifest` prints `BENCHMARK.json` from the tables in `spec.rs`.

use std::process::ExitCode;

use sv2p_benchmark::cell;
use sv2p_benchmark::host::Fingerprint;
use sv2p_benchmark::runner::{self, Outcome, RunPlan, Skipped};
use sv2p_benchmark::spec::{self, Better, END_TO_END, RUN_SECONDS};
use sv2p_benchmark::workloads::Workload;

/// Exit code for a command line the benchmark cannot act on.
const USAGE: u8 = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("sv2p-benchmark: {msg}");
    eprintln!(
        "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--sets N] [--smoke]"
    );
    ExitCode::from(USAGE)
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: u32,
    smoke: bool,
    // `cell` only.
    shards: u16,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 1,
        smoke: false,
        shards: 1,
        traced: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs an integer")?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?
            }
            "--sets" => {
                a.sets = value("an integer")?
                    .parse()
                    .map_err(|_| "--sets needs an integer")?
            }
            "--shards" => {
                a.shards = value("an integer")?
                    .parse()
                    .map_err(|_| "--shards needs an integer")?
            }
            "--smoke" => a.smoke = true,
            "--traced" => a.traced = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.sets == 0 || a.seconds.is_nan() || a.seconds < 0.0 {
        return Err("--sets must be positive and --seconds not negative".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        Some("cell") => match parse_args(&argv[1..]) {
            Ok(args) => run_cell(&args),
            Err(msg) => usage(&msg),
        },
        _ => match parse_args(&argv) {
            Ok(args) => run_benchmark(&args),
            Err(msg) => usage(&msg),
        },
    }
}

fn run_cell(args: &Args) -> ExitCode {
    let Some(workload) = args.workload.as_deref().and_then(Workload::from_name) else {
        return usage("cell needs --workload with a known name");
    };
    let cell = cell::run(&cell::CellArgs {
        workload,
        seed: args.seed,
        smoke: args.smoke,
        traced: args.traced,
        shards: args.shards,
        seconds: args.seconds,
    });
    println!("{}", cell.to_json());
    ExitCode::SUCCESS
}

fn run_benchmark(args: &Args) -> ExitCode {
    let selected: Vec<Workload> = match &args.workload {
        None => Workload::ALL.to_vec(),
        Some(name) => match Workload::from_name(name) {
            Some(w) => vec![w],
            None => return usage(&format!("unknown workload {name}")),
        },
    };
    let plan = RunPlan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let fingerprint = Fingerprint::read();
    println!(
        "host: {} cores, {}, governor {}, {} MB available, {}, commit {}",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.governor,
        fingerprint.mem_available_mb,
        fingerprint.rustc,
        fingerprint.git_commit
    );
    println!("all timings are host wall-clock; simulated statistics are checked, not timed");

    let mut ok = true;
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    let mut skipped: Vec<Skipped> = Vec::new();
    for set in 1..=args.sets {
        if args.sets > 1 {
            println!("\n#### set {set} of {}", args.sets);
        }
        let mut outcomes = Vec::new();
        for &w in &selected {
            match runner::run_workload(w, &plan) {
                Ok(outcome) => {
                    runner::print_outcome(&outcome, &plan);
                    ok &= outcome.correct();
                    outcomes.push(outcome);
                }
                Err(skip) => {
                    println!("\n== SKIPPED {}", skip.0);
                    skipped.push(skip);
                }
            }
        }
        sets.push(outcomes);
    }
    if args.sets > 1 {
        ok &= compare_sets(&sets);
    }
    if !skipped.is_empty() {
        println!("\n{} workload run(s) skipped", skipped.len());
    }

    let last = sets.last().expect("at least one set");
    let stem = match (&args.workload, last.first()) {
        (Some(_), Some(o)) => format!("{}.result", o.workload.name()),
        _ => "results".to_string(),
    };
    let path = runner::results_path(&stem);
    match runner::write_results(&path, &fingerprint, &plan, last, &skipped) {
        Ok(()) => println!("\nresults -> {}", path.display()),
        Err(e) => {
            println!("\ncannot write {}: {e}", path.display());
            ok = false;
        }
    }

    // One workload asked for: end with the line the driver reads. A skipped
    // workload has no result to print, which the non-zero exit reports.
    if args.workload.is_some() {
        match last.first() {
            Some(outcome) => println!("{}", runner::contract_line(outcome, args.trace)),
            None => ok = false,
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints, per workload and end-to-end metric, how far apart the figures of
/// the first and the last set are, beside the bound; false if any pair is
/// further apart than its bound. Both sets ran the same code, so this is a
/// check on noise and does not depend on which set came first: the distance
/// is taken as a share of the smaller figure. The signed "worse by" figure is
/// for reading only.
fn compare_sets(sets: &[Vec<Outcome>]) -> bool {
    let (first, last) = (&sets[0], &sets[sets.len() - 1]);
    let mut within = true;
    println!("\n#### agreement of set {} with set 1", sets.len());
    for a in first {
        let Some(b) = last.iter().find(|b| b.workload == a.workload) else {
            continue;
        };
        for m in END_TO_END {
            let (va, vb) = (a.metric(m.name), b.metric(m.name));
            if va <= 0.0 || vb <= 0.0 {
                continue;
            }
            let apart = runner::apart(va, vb);
            let worse = match m.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => 1.0 - vb / va,
            };
            let verdict = if apart > m.bound {
                "EXCEEDS BOUND"
            } else {
                "ok"
            };
            within &= apart <= m.bound;
            println!(
                "   {:<16} {:<18} {:>14.6} -> {:>14.6} {:<4} worse by {:>+6.1} %  apart {:>5.1} %  (bound {:.0} %)  {verdict}",
                a.workload.name(),
                m.name,
                va,
                vb,
                m.unit,
                worse * 100.0,
                apart * 100.0,
                m.bound * 100.0
            );
        }
    }
    within
}
