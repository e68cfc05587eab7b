//! What the benchmark reads from the host: the fingerprint stored with every
//! result, and the memory and CPU-time counters of a cell.

use std::process::Command;

use sv2p_bench::cli;

/// A `kB` field of `/proc/self/status` or `/proc/meminfo`, in bytes.
fn proc_kb(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = text.lines().find_map(|l| l.strip_prefix(field))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Current resident set of this process (`VmRSS`), 0 where unreadable.
pub fn rss_bytes() -> u64 {
    proc_kb("/proc/self/status", "VmRSS:").unwrap_or(0)
}

/// `MemAvailable`, `None` where unreadable.
pub fn mem_available_bytes() -> Option<u64> {
    proc_kb("/proc/meminfo", "MemAvailable:")
}

/// User plus system CPU time of this process, in seconds (clock ticks of
/// 10 ms, so only differences over a whole run mean anything).
pub fn cpu_time_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields are counted after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 of the line, 11 and 12 after ')'.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The first CPU this process may run on (`Cpus_allowed_list`).
pub fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first: String = list
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    first.parse().ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where a result was measured: enough to tell whether two results can be
/// compared. Values that cannot be read are "unknown", never left out.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: u64,
    pub cpu_model: String,
    pub governor: String,
    pub mem_available_mb: u64,
    pub rustc: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn read() -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let governor =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown());
        Fingerprint {
            nproc: cli::host_cores(),
            cpu_model,
            governor,
            mem_available_mb: mem_available_bytes().unwrap_or(0) >> 20,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }

    /// The fingerprint as the body of a JSON object (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\": {}, \"cpu_model\": \"{}\", \"governor\": \"{}\", \
             \"mem_available_mb\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"",
            self.nproc,
            json_safe(&self.cpu_model),
            json_safe(&self.governor),
            self.mem_available_mb,
            json_safe(&self.rustc),
            json_safe(&self.git_commit),
        )
    }
}

/// Drops the characters that would need escaping inside a JSON string.
pub fn json_safe(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
        .collect()
}
