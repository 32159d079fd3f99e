//! Metrics, the host record and the result lines a run prints.

use crate::workload::Tally;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// One reported number with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: u64) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
            n,
        }
    }
}

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpus: usize,
    pub rustc: String,
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Host {
    /// Logical CPUs, the `rustc` on the path, and the git revision when
    /// the working directory is a git checkout (`unknown` otherwise).
    pub fn detect() -> Self {
        Self {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "--short=12", "HEAD"])
            } else {
                None
            }
            .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON (non-finite values cannot occur in a valid
/// result; they render as 0 and the caller has already failed the run).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The one-line result that ends standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics` (`{"name": {"value", "unit"}}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// The full record of a run — host, seed, per-phase request accounting
/// and every metric with its sample count — as one JSON document.
pub fn record_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    host: &Host,
    phases: &[(&str, Tally, Duration)],
    metrics: &[Metric],
) -> String {
    let phases: Vec<String> = phases
        .iter()
        .map(|(name, t, elapsed)| {
            format!(
                "{{\"phase\":{},\"sent\":{},\"ok\":{},\"shed\":{},\"deadline\":{},\"other\":{},\"wrong\":{},\"elapsed_s\":{}}}",
                json_str(name),
                t.sent,
                t.ok,
                t.shed,
                t.deadline,
                t.other,
                t.wrong,
                json_num(elapsed.as_secs_f64())
            )
        })
        .collect();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.n
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"host\":{{\"logical_cpus\":{},\"rustc\":{},\"git_rev\":{}}},\
         \"phases\":[{}],\"metrics\":[{}]}}\n",
        json_str(workload),
        host.cpus,
        json_str(&host.rustc),
        json_str(&host.git_rev),
        phases.join(","),
        metrics.join(",")
    )
}

/// The human-readable metric line: `metric <name> = <value> <unit> n=<n>`.
/// `--workload all` parses these lines back from each child run.
pub fn metric_line(m: &Metric) -> String {
    format!(
        "metric {} = {} {} n={}",
        m.name,
        json_num(m.value),
        m.unit,
        m.n
    )
}

/// Parses a [`metric_line`].
pub fn parse_metric_line(line: &str) -> Option<Metric> {
    let mut it = line.strip_prefix("metric ")?.split_whitespace();
    let name = it.next()?;
    (it.next()? == "=").then_some(())?;
    let value: f64 = it.next()?.parse().ok()?;
    let unit = it.next()?;
    let n: u64 = it.next()?.strip_prefix("n=")?.parse().ok()?;
    // Units come from a fixed set; intern them so `Metric` stays 'static.
    let unit = UNITS.iter().find(|u| **u == unit)?;
    Some(Metric::new(name, value, unit, n))
}

/// Every unit the benchmark reports.
pub const UNITS: [&str; 10] = [
    "s", "ms", "us", "req/s", "ratio", "MB", "count", "nJ", "sim_ns", "bytes",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("p50_ms", 0.25, "ms", 9)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"p50_ms":{"value":0.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("throughput_rps", 1234.5678, "req/s", 4000);
        assert_eq!(parse_metric_line(&metric_line(&m)), Some(m));
        assert_eq!(parse_metric_line("phase x"), None);
    }
}
