//! The run protocol: the cells of a run as child processes, the checks
//! across them, and the printed and stored results.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use sv2p_telemetry::json::parse_flat;

use crate::host::{self, Fingerprint};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{Sizes, Workload};

/// Where span files and results go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// How one workload is to be run.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    pub seed: u64,
    /// Seconds to spend measuring.
    pub seconds: f64,
    /// Add a traced cell and report the per-layer metrics.
    pub trace: bool,
    /// A tenth of the size, the fewest repetitions.
    pub smoke: bool,
}

/// One cell's parsed output.
#[derive(Debug)]
struct CellOut {
    values: BTreeMap<String, f64>,
    digest: String,
}

/// A workload's result.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    /// One figure per metric: end-to-end metrics from the untraced cell, the
    /// others from whichever cell measures them.
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    /// Every check that failed; empty means correct.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Why a workload was not run.
#[derive(Debug)]
pub struct Skipped(pub String);

/// How far apart two figures of one metric are, as a share of the smaller,
/// so that the figure is the same whichever of the two was measured first.
pub fn apart(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Runs one cell in a child process and parses its line.
fn spawn_cell(
    w: Workload,
    plan: &RunPlan,
    shards: u16,
    traced: bool,
    seconds: f64,
) -> Result<CellOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let cell_command = |pin: Option<u32>| {
        let mut cmd = match pin {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &cpu.to_string()]).arg(&exe);
                cmd
            }
            None => Command::new(&exe),
        };
        cmd.args(["cell", "--workload", w.name()])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--shards", &shards.to_string()])
            .args(["--seconds", &seconds.to_string()]);
        if traced {
            cmd.arg("--traced");
        }
        if plan.smoke {
            cmd.arg("--smoke");
        }
        cmd
    };
    let pin = if w.pinned_to_one_cpu() {
        host::first_allowed_cpu()
    } else {
        None
    };
    // `output` waits for the child to end, so none outlives the run. Where
    // `taskset` cannot be started the cell runs unpinned.
    let out = match cell_command(pin).output() {
        Err(e) if pin.is_some() => {
            eprintln!(
                "warning: cannot pin {} with taskset ({e}); running it unpinned",
                w.name()
            );
            cell_command(None).output()
        }
        other => other,
    }
    .map_err(|e| format!("cannot start cell: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cell exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields = stdout
        .lines()
        .last()
        .and_then(parse_flat)
        .ok_or_else(|| format!("cell printed no result: {stdout}"))?;
    let text = |k: &str| {
        fields
            .get(k)
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    let failure = text("failure");
    if !failure.is_empty() {
        return Err(failure);
    }
    let values = fields
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect();
    Ok(CellOut {
        values,
        digest: text("digest"),
    })
}

/// Runs `w` for about `plan.seconds` and checks it.
///
/// End-to-end figures come from an untraced cell on one shard. `--trace`
/// gives half the time to a traced cell (engine profiler on, kernel loops,
/// span file). A workload that is [also run sharded](Workload::also_on_shards)
/// gets a short cell on that many shards on top.
pub fn run_workload(w: Workload, plan: &RunPlan) -> Result<Outcome, Skipped> {
    if let Some(avail) = host::mem_available_bytes() {
        if avail < w.min_mem_bytes() {
            return Err(Skipped(format!(
                "{}: {} MB available, {} MB needed",
                w.name(),
                avail >> 20,
                w.min_mem_bytes() >> 20
            )));
        }
    }
    let seconds = match (plan.smoke, plan.trace) {
        (true, _) => 0.0,
        (false, true) => plan.seconds / 2.0,
        (false, false) => plan.seconds,
    };
    let mut cells = vec![(1, false, seconds)];
    if plan.trace {
        cells.push((1, true, seconds));
    }
    if let Some(shards) = w.also_on_shards() {
        // One repetition for the digest; a few when its costs are reported.
        let seconds = if plan.trace && !plan.smoke { 3.0 } else { 0.0 };
        cells.push((shards, plan.trace, seconds));
    }

    let mut failures = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut digest = String::new();
    let (mut attempted, mut failed, mut repetitions) = (0, 0, 0.0);
    let (mut untraced_run_s, mut traced_run_s) = (None, None);
    for (shards, traced, seconds) in cells {
        let out = match spawn_cell(w, plan, shards, traced, seconds) {
            Ok(out) => out,
            Err(why) => {
                failures.push(why);
                break;
            }
        };
        // Simulated statistics are a function of the seed alone: traced or
        // not, on one shard or several, every cell must reproduce them.
        if digest.is_empty() {
            digest = out.digest.clone();
        } else if out.digest != digest {
            failures.push(format!(
                "digest {} of the cell on {shards} shard(s), traced {traced}, differs from {digest}",
                out.digest
            ));
        }
        attempted += out.values.get("check.attempted").copied().unwrap_or(0.0) as u64;
        failed += out.values.get("check.failed").copied().unwrap_or(0.0) as u64;
        repetitions += out.values.get("host.repetitions").copied().unwrap_or(0.0);
        let run_s = out.values.get("rep.run_median_s").copied();
        if shards > 1 {
            metrics.extend(
                out.values
                    .into_iter()
                    .filter(|(name, _)| name.starts_with("netsim.sharded.")),
            );
        } else if traced {
            traced_run_s = run_s;
            // A number both kinds report is the untraced cell's.
            for (name, value) in out.values {
                metrics.entry(name).or_insert(value);
            }
        } else {
            untraced_run_s = run_s;
            metrics.extend(out.values);
        }
    }
    if let (Some(traced), Some(untraced)) = (traced_run_s, untraced_run_s) {
        metrics.insert("telemetry.profile_overhead".into(), traced / untraced - 1.0);
    }
    metrics.insert("host.repetitions".into(), repetitions);
    if attempted == 0 && failures.is_empty() {
        failures.push("no operation was attempted".into());
    }
    Ok(Outcome {
        workload: w,
        metrics,
        attempted,
        failed,
        digest,
        failures,
    })
}

/// Prints a workload's metrics by name, with units.
pub fn print_outcome(o: &Outcome, plan: &RunPlan) {
    let sizes = Sizes::of(o.workload, plan.smoke);
    let size = if o.workload.is_sim() {
        format!("{} flows", sizes.flows)
    } else {
        format!("{} ops on {} mappings", sizes.ctl_ops, sizes.ctl_mappings)
    };
    println!(
        "\n== {} (seed {}, {} repetitions of {size})",
        o.workload.name(),
        plan.seed,
        o.metric("host.repetitions"),
    );
    if !o.workload.is_sim() {
        println!(
            "   closed loop, 1 connection over loopback TCP, client and handler thread on one CPU"
        );
    }
    for m in END_TO_END {
        println!(
            "   {:<34} {:>16.6} {:<6} (bound {:.0} %)",
            m.name,
            o.metric(m.name),
            m.unit,
            m.bound * 100.0
        );
    }
    println!(
        "      the median repetition ran {:.6} s, {:.1} % over the slice floors summed; the fastest {:.6} s",
        o.metric("rep.run_median_s"),
        o.metric("host.disturbance") * 100.0,
        o.metric("rep.run_fastest_s")
    );
    if plan.trace {
        for m in PER_LAYER {
            println!("   {:<34} {:>16.6} {}", m.name, o.metric(m.name), m.unit);
        }
    }
    println!(
        "   attempted {}  failed {}  sim_digest {}  correct {}",
        o.attempted,
        o.failed,
        o.digest,
        o.correct()
    );
    for why in &o.failures {
        println!("   CHECK FAILED: {why}");
    }
}

/// The object the driver reads from the last line of standard output.
pub fn contract_line(o: &Outcome, trace: bool) -> String {
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let entries: Vec<String> = declared
        .into_iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                o.metric(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        entries.join(", ")
    )
}

/// Stores the results of a run with the host they were measured on.
pub fn write_results(
    path: &Path,
    fingerprint: &Fingerprint,
    plan: &RunPlan,
    outcomes: &[Outcome],
    skipped: &[Skipped],
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host\": {{{}}},\n", fingerprint.json_fields()));
    out.push_str(&format!(
        "  \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n",
        plan.seed, plan.seconds, plan.trace, plan.smoke
    ));
    let skipped: Vec<String> = skipped
        .iter()
        .map(|s| format!("\"{}\"", host::json_safe(&s.0)))
        .collect();
    out.push_str(&format!("  \"skipped\": [{}],\n", skipped.join(", ")));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let sizes = Sizes::of(o.workload, plan.smoke);
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!(
                "    {{\"name\": \"{}\", \"correct\": {}, \"sim_digest\": \"{}\", \
                 \"attempted\": {}, \"failed\": {}, \
                 \"flows\": {}, \"ctl_ops\": {}, \"ctl_mappings\": {}, \"metrics\": {{{}}}}}",
                o.workload.name(),
                o.correct(),
                o.digest,
                o.attempted,
                o.failed,
                sizes.flows,
                sizes.ctl_ops,
                sizes.ctl_mappings,
                metrics.join(", ")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// `benchmark/out/<stem>.json`.
pub fn results_path(stem: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{stem}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apart_does_not_depend_on_order() {
        assert_eq!(apart(100.0, 130.0), apart(130.0, 100.0));
        assert!((apart(100.0, 130.0) - 0.3).abs() < 1e-12);
        assert_eq!(apart(7.0, 7.0), 0.0);
    }
}
