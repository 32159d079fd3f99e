//! `servebench` — the repository's end-to-end and per-layer serving
//! benchmark. See `benchmark/README.md` for the workloads, the metrics
//! and the layer → end-to-end prediction table.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload all --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics`. Any reply that differs
//! from the software reference, or any modelled count that does not
//! repeat, fails the run: `correct` is false, no metrics are reported
//! and the exit code is 1.

mod http;
mod model;
mod probes;
mod report;
mod spans;
mod stats;
mod workload;

use report::{metric_line, parse_metric_line, record_json, result_line, Host, Metric};
use stats::{delta_mean, delta_quantile, mean, median, quantile, sorted};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Client, Obs, Plan, Rig, Stages, Tally, WORKLOADS};

/// Set-ups per run: at least `SETUP_MIN`, then more until `SETUP_TIME`
/// has been spent or `SETUP_MAX` were made; `setup_s` is their median.
/// The last set-up's rig serves the load.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 200;
const SETUP_TIME: Duration = Duration::from_millis(1500);
/// Saturation warm-up before the first segment. Warm-up requests count in
/// the failure accounting only.
const WARMUP: Duration = Duration::from_millis(400);
/// Latency and saturation segments an untraced run interleaves; p50 is a
/// median over segments, throughput the fastest segment's rate.
const SEGMENTS: usize = 16;
/// New-connection requests of the traced run's net probe.
const NET_PROBE: usize = 200;
/// Where records, spans and temporary `.ebm` files go, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "\
servebench — end-to-end and per-layer serving benchmark

USAGE: servebench --workload NAME --seed N --seconds N --trace 0|1

  --workload NAME  edge-keepalive | epcm-mnist | accel-wdm | all
  --seed N         seed of every generated input, network and schedule
  --seconds N      measured load time per run (set-up not included)
  --trace 0|1      0: end-to-end metrics; 1: traced run with per-layer metrics
";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The outcome of one workload run.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    phases: Vec<(&'static str, Tally, Duration)>,
}

/// Nearest-rank quantile under the sample-count rule, or an error naming
/// the metric — an end-to-end metric without enough samples fails the run.
fn strict(name: &str, xs: &[f64], q: f64) -> Result<f64, String> {
    quantile(&sorted(xs.to_vec()), q).ok_or_else(|| {
        format!(
            "{name}: {} samples, fewer than the {} the sample-count rule requires",
            xs.len(),
            stats::min_samples(q)
        )
    })
}

/// Per-layer quantile: under the rule when it holds, else the raw
/// nearest-rank value of whatever was sampled (0 for no samples); the
/// sample count travels with it.
fn loose(xs: &[f64], q: f64) -> (f64, u64) {
    let s = sorted(xs.to_vec());
    let n = s.len() as u64;
    let v = quantile(&s, q).or_else(|| {
        let rank = ((q * s.len() as f64).ceil() as usize).max(1);
        s.get(rank - 1).copied()
    });
    (v.unwrap_or(0.0), n)
}

fn hist_q(
    before: &eb_telemetry::LatencyHistogram,
    after: &eb_telemetry::LatencyHistogram,
    q: f64,
) -> (f64, u64) {
    let (v, n) = delta_quantile(before, after, q);
    (v.unwrap_or(0.0), n)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let plan = Plan::new(&args.workload, args.seed, out_dir)?;
    let total = Duration::from_secs(args.seconds);
    let origin = Instant::now();

    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    let started = Instant::now();
    while setups.len() < SETUP_MIN || (setups.len() < SETUP_MAX && started.elapsed() < SETUP_TIME) {
        if let Some(old) = rig.take() {
            old.shutdown();
        }
        let (r, took) = Rig::build(&plan)?;
        setups.push(took.as_secs_f64());
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");
    plan.write_artifacts()?;
    let result = measure(&plan, &rig, args, total, origin);
    rig.shutdown();
    plan.remove_artifacts();
    let (mut phases, mut metrics, mut per_layer) = result?;
    // Modelled counts are checked in every run, after the load so they do
    // not disturb its timings; the traced run also reports them.
    let counts = probes::modelled_counts(plan.seed)?;
    probes::check_repeat(&counts, plan.seed, out_dir)?;
    per_layer.extend(probes::modelled_metrics(&counts));
    phases.insert(
        0,
        (
            "setup",
            Tally {
                sent: setups.len() as u64,
                ok: setups.len() as u64,
                ..Tally::default()
            },
            Duration::from_secs_f64(setups.iter().sum()),
        ),
    );
    let mut tally = Tally::default();
    for (_, t, _) in &phases {
        tally.add(t);
    }
    if args.trace {
        metrics = per_layer;
        metrics.splice(
            0..0,
            [
                Metric::new("client.sent", tally.sent as f64, "count", 1),
                Metric::new("client.ok", tally.ok as f64, "count", 1),
                Metric::new("client.shed", tally.shed as f64, "count", 1),
                Metric::new("client.deadline", tally.deadline as f64, "count", 1),
                Metric::new(
                    "client.failed",
                    (tally.other + tally.wrong) as f64,
                    "count",
                    1,
                ),
            ],
        );
    } else {
        let n = setups.len() as u64;
        metrics.insert(0, Metric::new("setup_s", median(&setups), "s", n));
        metrics.push(Metric::new(
            "ok_share",
            tally.ok as f64 / tally.sent as f64,
            "ratio",
            tally.sent,
        ));
    }
    Ok(Outcome {
        tally,
        metrics,
        phases,
    })
}

type Measured = (
    Vec<(&'static str, Tally, Duration)>,
    Vec<Metric>,
    Vec<Metric>,
);

/// The load phases and everything measured around them. Returns the
/// phases, the end-to-end metrics and (traced runs) the per-layer ones.
fn measure(
    plan: &Plan,
    rig: &Rig,
    args: &Args,
    total: Duration,
    origin: Instant,
) -> Result<Measured, String> {
    if args.trace {
        measure_traced(plan, rig, total, origin)
    } else {
        measure_untraced(plan, rig, total)
    }
}

/// Fails the run if any phase saw a reply that differs from the reference.
fn check_replies(phases: &[(&'static str, Tally, Duration)]) -> Result<(), String> {
    for (name, t, _) in phases {
        if t.wrong > 0 {
            return Err(format!(
                "{name}: {} replies differ from the reference",
                t.wrong
            ));
        }
    }
    Ok(())
}

const fn ms(ns: f64) -> f64 {
    ns / 1e6
}

const fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The untraced run: [`SEGMENTS`] latency segments interleaved with as
/// many saturation segments, all at the server's default configuration.
fn measure_untraced(plan: &Plan, rig: &Rig, total: Duration) -> Result<Measured, String> {
    let warm = workload::warm_up(plan, rig, WARMUP);
    let window = total / (2 * SEGMENTS as u32);
    let mut lats = Vec::with_capacity(SEGMENTS);
    let mut sats = Vec::with_capacity(SEGMENTS);
    for k in 0..SEGMENTS {
        lats.push(workload::latency_loop(
            plan,
            rig,
            window,
            &format!("latency{k}"),
        ));
        sats.push(workload::saturation(
            plan,
            rig,
            window,
            &format!("saturation{k}"),
        ));
    }
    // Read before the modelled-count check builds sessions of its own.
    let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    // Latency quantiles per model (the median over its segments), then
    // their mean: each model forms its own cluster of latencies, and a
    // pooled quantile would jump between them.
    let by_model = |q: f64| -> Option<f64> {
        let per_model: Option<Vec<f64>> = (0..plan.models.len())
            .map(|m| {
                let segs: Vec<&[f64]> = lats.iter().map(|(seg, _)| &seg[m].latency[..]).collect();
                stats::segment_quantile(&segs, q)
            })
            .collect();
        per_model.map(|v| mean(&v))
    };
    let (p50, p90) = (by_model(0.5), by_model(0.9));
    let rates: Vec<f64> = sats
        .iter()
        .map(|c| c.tally.ok as f64 / c.elapsed.as_secs_f64())
        .collect();
    let mut latency = Obs::default();
    let mut saturated = Obs::default();
    for (seg, wall) in lats {
        seg.into_iter().for_each(|o| latency.absorb(o));
        latency.elapsed += wall;
    }
    sats.into_iter().for_each(|o| saturated.absorb(o));
    let phases = vec![
        ("warmup", warm.tally, warm.elapsed),
        ("latency", latency.tally, latency.elapsed),
        ("saturation", saturated.tally, saturated.elapsed),
    ];
    check_replies(&phases)?;

    let mut e2e = Vec::new();
    let n = latency.latency.len() as u64;
    strict("p50_ms", &latency.latency, 0.5)?;
    let p50 = p50.ok_or("a model has too few successful requests in the latency segments")?;
    e2e.push(Metric::new("p50_ms", ms(p50), "ms", n));
    // The tail is printed but not bounded: on a shared 2-CPU host it is
    // set by the machine's scheduling stalls more than by the program
    // (see README.md).
    let (p99, _) = loose(&latency.latency, 0.99);
    println!(
        "info p90_ms = {} ms n={n} (mean over models of segment medians; not a bounded metric)",
        ms(p90.unwrap_or(0.0))
    );
    println!("info p99_ms = {} ms n={n} (not a bounded metric)", ms(p99));
    println!(
        "info saturation segments: median {} req/s, slowest {} req/s",
        median(&rates),
        rates.iter().copied().fold(f64::INFINITY, f64::min)
    );
    // The fastest segment: the shared host's stalls only ever slow a
    // segment down, and in a slow spell they cut the two-connection
    // edge's rate by far more than its median latency (see README.md).
    let best = rates.iter().copied().fold(0.0, f64::max);
    e2e.push(Metric::new(
        "throughput_rps",
        best,
        "req/s",
        saturated.tally.ok,
    ));
    e2e.push(Metric::new("peak_rss_mb", rss, "MB", 1));
    Ok((phases, e2e, Vec::new()))
}

/// The traced run: one open-loop segment without spans, one with spans
/// and one saturation segment, with stage snapshots between them, then
/// a round of operator swaps, the net probe and the layer probes.
fn measure_traced(
    plan: &Plan,
    rig: &Rig,
    total: Duration,
    origin: Instant,
) -> Result<Measured, String> {
    let warm = workload::warm_up(plan, rig, WARMUP);
    let open_window = total.mul_f64(0.3);
    let s0 = Stages::snapshot(plan, rig);
    let open = workload::open_loop(plan, rig, open_window, "open", None);
    let s1 = Stages::snapshot(plan, rig);
    let open_traced = workload::open_loop(plan, rig, open_window, "open-traced", Some(origin));
    let s2 = Stages::snapshot(plan, rig);
    let closed = workload::saturation(plan, rig, total.mul_f64(0.4), "saturation");
    let s3 = Stages::snapshot(plan, rig);
    let swaps = workload::quiescent_round(plan, rig)?;
    let phases = vec![
        ("warmup", warm.tally, warm.elapsed),
        ("open-loop", open.tally, open.elapsed),
        ("open-loop-traced", open_traced.tally, open_traced.elapsed),
        ("saturation", closed.tally, closed.elapsed),
    ];
    check_replies(&phases)?;

    let mut layer = Vec::new();
    let mut put = |name: &str, (v, n): (f64, u64), unit: &'static str| {
        layer.push(Metric::new(name, v, unit, n));
    };
    for (name, q) in [
        ("client.open_p50_ms", 0.5),
        ("client.p90_ms", 0.9),
        ("client.p99_ms", 0.99),
    ] {
        let (v, n) = loose(&open.latency, q);
        put(name, (ms(v), n), "ms");
    }
    let (late, n) = loose(&open.late, 0.99);
    put("client.late_p99_ms", (ms(late), n), "ms");

    // Stage times are means over the phase, not medians: the stage
    // histograms bucket whole microseconds, so a median of a tight stage
    // reads the same integer on every run, while means add up (client =
    // outside + server e2e, e2e = serve + execute).
    let hist_mean = |a: &eb_telemetry::LatencyHistogram, b| {
        let (v, n) = delta_mean(a, b);
        (v.unwrap_or(0.0), n)
    };
    // net: a probe of fresh connections, snapshotted around.
    let p0 = Stages::snapshot(plan, rig);
    let (connect, exchange) = workload::net_probe(plan, rig, NET_PROBE)?;
    let p1 = Stages::snapshot(plan, rig);
    let (c, n) = loose(&connect, 0.5);
    put("net.connect_p50_us", (us(c), n), "us");
    put("net.parse_mean_us", hist_mean(&p0.parse, &p1.parse), "us");
    let (xchg, (e2e, n)) = match plan.client {
        Client::Http { .. } => (mean(&open.exchange), hist_mean(&s0.e2e, &s1.e2e)),
        Client::Tickets => (mean(&exchange), hist_mean(&p0.e2e, &p1.e2e)),
    };
    let outside = us(xchg) - e2e;
    put("net.outside_mean_us", (outside, n), "us");

    // serve and runtime: the untraced open-loop phase.
    put("serve.queue_mean_us", hist_mean(&s0.queue, &s1.queue), "us");
    put(
        "serve.queue_p99_us",
        hist_q(&s0.queue, &s1.queue, 0.99),
        "us",
    );
    put(
        "serve.linger_mean_us",
        hist_mean(&s0.linger, &s1.linger),
        "us",
    );
    put("serve.reply_mean_us", hist_mean(&s0.reply, &s1.reply), "us");
    put("serve.e2e_mean_us", hist_mean(&s0.e2e, &s1.e2e), "us");
    // Batch shape: the saturation phase.
    let (mean_batch, batches) = hist_mean(&s2.batch_size, &s3.batch_size);
    put("serve.batch_mean", (mean_batch, batches), "count");
    let max_batch = eb_runtime::PoolConfig::default().max_batch;
    let served = (mean_batch * batches as f64).round() as u64;
    let fill = stats::batch_fill(served, batches, max_batch).unwrap_or(0.0);
    put("serve.batch_fill", (fill, batches), "ratio");
    // Mean over models of each model's median swap.
    let swap_n = |by_model: &[Vec<f64>]| {
        let medians: Vec<f64> = by_model
            .iter()
            .filter(|xs| !xs.is_empty())
            .map(|xs| median(xs))
            .collect();
        (
            mean(&medians),
            by_model.iter().map(|xs| xs.len() as u64).sum(),
        )
    };
    put("serve.swap_ms", swap_n(&swaps.memory_ms), "ms");
    put("serve.swap_from_file_ms", swap_n(&swaps.file_ms), "ms");
    put(
        "runtime.execute_mean_us",
        hist_mean(&s0.execute, &s1.execute),
        "us",
    );
    put(
        "runtime.execute_p99_us",
        hist_q(&s0.execute, &s1.execute, 0.99),
        "us",
    );

    // Trace: overhead against the untraced phase, and the mean self time
    // per request of each layer over the traced phase.
    let (plain, _) = loose(&open.latency, 0.5);
    let (with_spans, n) = loose(&open_traced.latency, 0.5);
    put("trace.overhead_p50_us", (us(with_spans - plain), n), "us");
    let per_layer = spans::layer_self_per_request(&open_traced.spans);
    let self_mean = |layer: &str| {
        let xs: Vec<f64> = per_layer
            .get(layer)
            .map(|v| v.iter().map(|&ns| ns as f64).collect())
            .unwrap_or_default();
        (us(mean(&xs)), xs.len() as u64)
    };
    put("trace.self_client_us", self_mean("client"), "us");
    match plan.client {
        Client::Tickets => {
            // No network on the ticket path: report the net probe's
            // outside time so the row stays comparable.
            put("trace.self_net_us", (outside, NET_PROBE as u64), "us");
            put("trace.self_serve_us", self_mean("serve"), "us");
            put("trace.self_runtime_us", self_mean("runtime"), "us");
        }
        Client::Http { .. } => {
            // Server stages are not visible per request over HTTP: split
            // the exchange with the server's own means over the traced
            // phase.
            let (e2e, n) = hist_mean(&s1.e2e, &s2.e2e);
            let (exec, _) = hist_mean(&s1.execute, &s2.execute);
            let (net, xn) = self_mean("net");
            put("trace.self_net_us", (net - e2e, xn), "us");
            put("trace.self_serve_us", (e2e - exec, n), "us");
            put("trace.self_runtime_us", (exec, n), "us");
        }
    }
    let (probe_metrics, probe_spans) = probes::run(plan, origin)?;
    layer.extend(probe_metrics);
    let mut all_spans = open_traced.spans;
    all_spans.extend(probe_spans);
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.json", plan.name, plan.seed));
    std::fs::write(&path, spans::to_json(&all_spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans written to {} ({} spans)",
        path.display(),
        all_spans.len()
    );
    Ok((phases, Vec::new(), layer))
}

fn print_outcome(args: &Args, host: &Host, outcome: &Outcome) {
    for (name, t, elapsed) in &outcome.phases {
        println!(
            "phase {name}: sent={} ok={} shed={} deadline={} other={} wrong={} elapsed={:.3}s",
            t.sent,
            t.ok,
            t.shed,
            t.deadline,
            t.other,
            t.wrong,
            elapsed.as_secs_f64()
        );
    }
    let t = &outcome.tally;
    println!(
        "fail_share = {} (sent={} shed={} deadline={} other={} wrong={})",
        t.failed() as f64 / t.sent.max(1) as f64,
        t.sent,
        t.shed,
        t.deadline,
        t.other,
        t.wrong
    );
    for m in &outcome.metrics {
        println!("{}", metric_line(m));
    }
    let record = record_json(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host,
        &outcome.phases,
        &outcome.metrics,
    );
    let path = PathBuf::from(OUT_DIR).join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::write(&path, record) {
        Ok(()) => println!("record written to {}", path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", path.display()),
    }
}

/// `--workload all`: every workload in its own child process (so each
/// reports its own peak memory), one after another; the combined result
/// prefixes each metric with its workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("servebench: running {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("[{w}] {line}");
            if let Some(m) = parse_metric_line(line) {
                let name = format!("{w}.{}", m.name);
                metrics.push(Metric { name, ..m });
            }
        }
        let last = lines.last().copied().unwrap_or("");
        correct &= out.status.success() && last.contains("\"correct\":true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
    }
    if !correct {
        metrics.clear();
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("servebench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "servebench workload={} seed={} seconds={} trace={} host: logical_cpus={} rustc=\"{}\" git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cpus,
        host.rustc,
        host.git_rev
    );
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok(outcome) => {
            print_outcome(&args, &host, &outcome);
            println!(
                "{}",
                result_line(
                    true,
                    outcome.tally.sent,
                    outcome.tally.failed(),
                    &outcome.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
