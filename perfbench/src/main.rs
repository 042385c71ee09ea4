//! End-to-end refresh benchmark of the i2MapReduce workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pagerank-10pct|sssp-feed-1pct|apriori-append> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the public API only. `--trace 0` measures what a
//! user pays (refresh and recompute CPU and wall time, set-up time, memory,
//! served reads); `--trace 1` runs with `TelemetryMode::Full` and reports the
//! per-layer ledger, writing spans and the table under `perfbench/out/`.
//! Each run checks its results against a from-scratch recompute; a failed
//! check fails the run. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod apriori;
mod ledger;
mod pagerank;
mod reader;
mod sssp;
mod util;

use i2mr_common::telemetry::TelemetryMode;
use i2mr_mapred::WorkerPool;
use ledger::{LedgerInputs, RefreshRecord};
use reader::ReaderReport;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::{
    median, peak_rss_mib, tail_with_ten_beyond, Checks, Ctx, Metric, Outcome, Phase, Spans,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Fewest set-ups per phase of the epoch and cycle workloads (PageRank,
/// APriori); `setup_s` is the median over all of a phase's set-ups.
pub const MIN_SETUPS: usize = 3;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["pagerank-10pct", "sssp-feed-1pct", "apriori-append"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The repo root: the parent of the directory holding this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `commit=` from git, or `none` where the tree has no git metadata.
fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// The end-to-end figures of an untraced phase, plus the printed extras.
///
/// The result line carries CPU times: on a shared host the hypervisor's
/// steal moves wall-clock medians by far more than any bound a regression
/// gate could hold, and CPU time leaves steal out (see `util::cpu_s`).
/// The wall-clock figures a user waits for are printed beside them.
fn end_to_end(checks: Checks, ph: &Phase) -> Outcome {
    let setup_s: Vec<f64> = ph.setups.iter().map(|s| s.cpu_s).collect();
    let setup_wall_s: Vec<f64> = ph.setups.iter().map(|s| s.total_s).collect();
    let (refresh_s, recompute_s) = (&ph.refresh_s, &ph.recompute_s);
    let (refresh_cpu_s, recompute_cpu_s) = (&ph.refresh_cpu_s, &ph.recompute_cpu_s);
    // The result line carries the metrics every workload measures and that
    // are never 0 (as declared in BENCHMARK.json); the rest is printed.
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new(
            "refresh_cpu_s",
            median(refresh_cpu_s),
            "s",
            refresh_cpu_s.len(),
        ),
        Metric::new(
            "recompute_cpu_s",
            median(recompute_cpu_s),
            "s",
            recompute_cpu_s.len(),
        ),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB", 1),
    ];
    let mut extras = vec![
        Metric::new(
            "setup_wall_s",
            median(&setup_wall_s),
            "s",
            setup_wall_s.len(),
        ),
        Metric::new("refresh_s", median(refresh_s), "s", refresh_s.len()),
        Metric::new("recompute_s", median(recompute_s), "s", recompute_s.len()),
    ];
    if let Some((v, pct)) = tail_with_ten_beyond(refresh_s) {
        println!("refresh_tail_s is the p{pct:.1} refresh time");
        extras.push(Metric::new("refresh_tail_s", v, "s", refresh_s.len()));
    } else {
        println!(
            "refresh_tail_s absent: {} refreshes, a tail needs at least 11",
            refresh_s.len()
        );
    }
    for (what, refresh, recompute) in [
        ("recompute_s / refresh_s", refresh_s, recompute_s),
        (
            "recompute_cpu_s / refresh_cpu_s",
            refresh_cpu_s,
            recompute_cpu_s,
        ),
    ] {
        let (r, c) = (median(refresh), median(recompute));
        println!(
            "derived: {what} = {:.3} (recompute {:.6} s over {} runs, refresh {:.6} s over {} runs)",
            c / r,
            c,
            recompute.len(),
            r,
            refresh.len()
        );
    }
    extras.push(Metric::new(
        "result_err",
        ph.result_err,
        "abs",
        recompute_s.len(),
    ));
    if let Some(amp) = ph.store_amp {
        extras.push(Metric::new("store_amp", amp, "ratio", 1));
    }
    if let Some(rep) = &ph.reader {
        extras.extend(serving_metrics(rep));
    }
    Outcome {
        checks,
        attempted: ph.attempted(),
        failed: ph.failed(),
        metrics,
        extras,
    }
}

/// One measured phase of a workload: set up, refresh and recompute for
/// `budget` seconds with telemetry in `mode`, checking every result.
type PhaseFn = fn(&Ctx, &WorkerPool, TelemetryMode, f64, &mut Spans, &mut Checks) -> Res<Phase>;

/// `--trace 0`: one untraced phase gives the end-to-end metrics.
/// `--trace 1`: an untraced and a traced phase of half the time each give
/// the per-layer ledger and the tracing overhead.
fn run_workload(ctx: &Ctx, workload: &str, phase: PhaseFn) -> Res<Outcome> {
    let pool = WorkerPool::new(ctx.nproc);
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    if !ctx.trace {
        let ph = phase(
            ctx,
            &pool,
            TelemetryMode::Off,
            ctx.seconds,
            &mut spans,
            &mut checks,
        )?;
        return Ok(end_to_end(checks, &ph));
    }
    let half = ctx.seconds / 2.0;
    let untraced = phase(
        ctx,
        &pool,
        TelemetryMode::Off,
        half,
        &mut spans,
        &mut checks,
    )?;
    let mut traced = phase(
        ctx,
        &pool,
        TelemetryMode::Full,
        half,
        &mut spans,
        &mut checks,
    )?;
    let metrics = ledger::per_layer(&LedgerInputs {
        records: &traced.records,
        setups: &traced.setups,
        serve: std::mem::take(&mut traced.serve),
        n_workers: ctx.nproc,
        store_amp: traced.store_amp.unwrap_or(0.0),
        untraced_refresh_s: median(&untraced.refresh_s),
    });
    write_trace(ctx, workload, &spans, &traced.records, &metrics)?;
    Ok(Outcome {
        checks,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        metrics,
        extras: Vec::new(),
    })
}

/// Open-loop reader figures (printed; the reader's failures count in
/// `failed`).
fn serving_metrics(rep: &ReaderReport) -> Vec<Metric> {
    let n = rep.attempted as usize;
    let interval_us = 1e6 / sssp::READ_RATE_HZ;
    println!(
        "reader: {:.0} lookups/s scheduled, {:.3}% of the idle single-thread throughput ({:.0} lookups/s)",
        sssp::READ_RATE_HZ,
        100.0 * sssp::READ_RATE_HZ / rep.idle_hz,
        rep.idle_hz
    );
    println!(
        "reader: {} lookups, {} errors, {} None for a live key; service p50 {:.1} us, p99 {:.1} us",
        rep.attempted,
        rep.errors,
        rep.nones,
        rep.service_us(0.5),
        rep.service_us(0.99)
    );
    let wake_p99 = rep.wake_delay_us(0.99);
    println!(
        "reader: send delay p50 {:.1} us, p99 {:.1} us, max {:.1} us; of the {} lookups due after the previous one completed, p50 {:.1} us, p99 {:.1} us, {} the {:.0} us interval",
        rep.send_delay_us(0.5),
        rep.send_delay_us(0.99),
        rep.send_delay_us(1.0),
        rep.wake_delay_ns.len(),
        rep.wake_delay_us(0.5),
        wake_p99,
        if wake_p99 < interval_us { "below" } else { "NOT below" },
        interval_us
    );
    println!(
        "reader: thread on cpu {:.3} s, waiting for a cpu {:.3} s, over {:.3} s ({:.2}% of one core)",
        rep.cpu_s,
        rep.runqueue_s,
        rep.wall_s,
        100.0 * rep.cpu_s / rep.wall_s.max(f64::MIN_POSITIVE)
    );
    vec![
        Metric::new("serve_p50_us", rep.latency_us(0.5), "us", n),
        Metric::new("serve_p99_us", rep.latency_us(0.99), "us", n),
        Metric::new("serve_send_delay_p99_us", rep.send_delay_us(0.99), "us", n),
        Metric::new("serve_send_delay_max_us", rep.send_delay_us(1.0), "us", n),
    ]
}

/// Write the traced run's spans and per-layer table under `ctx.out`.
fn write_trace(
    ctx: &Ctx,
    workload: &str,
    spans: &Spans,
    records: &[RefreshRecord],
    metrics: &[Metric],
) -> Res<()> {
    std::fs::create_dir_all(&ctx.out)?;
    let base = ctx.out.join(format!("{workload}-seed{}", ctx.seed));
    let spans_path = base.with_extension("spans.jsonl");
    let ledger_path = base.with_extension("ledger.txt");
    std::fs::write(&spans_path, spans.to_jsonl())?;
    let table = ledger::render(records, metrics);
    std::fs::write(&ledger_path, format!("{workload} {}\n{table}", ctx.stamp))?;
    print!("{table}");
    println!(
        "trace: spans in {}, ledger in {}",
        spans_path.display(),
        ledger_path.display()
    );
    Ok(())
}

fn run(args: &Args) -> Res<Outcome> {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = root.join("perfbench").join("out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        work: out.join(format!("work-{}", std::process::id())),
        out,
        stamp: format!(
            "seed={} nproc={nproc} commit={}",
            args.seed,
            git_commit(&root)
        ),
    };
    println!(
        "workload {} trace={} seconds={} {}",
        args.workload, args.trace as u8, args.seconds, ctx.stamp
    );
    std::fs::create_dir_all(&ctx.work)?;
    let phase: PhaseFn = match args.workload.as_str() {
        "pagerank-10pct" => pagerank::run_phase,
        "sssp-feed-1pct" => sssp::run_phase,
        _ => apriori::run_phase,
    };
    let cpu_before = cpu_ticks();
    let outcome = run_workload(&ctx, &args.workload, phase);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let (Some(a), Some(b)) = (cpu_before, cpu_ticks()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total = d.iter().sum::<u64>().max(1) as f64;
        // /proc/stat order: user nice system idle iowait irq softirq steal.
        println!(
            "host cpu during the run: busy {:.1}%, steal {:.1}% (steal is time the hypervisor ran something else)",
            100.0 * (d[0] + d[1] + d[2] + d[5] + d[6]) as f64 / total,
            100.0 * d[7] as f64 / total
        );
    }
    let mut outcome = outcome?;
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extras.push(Metric::new(
        "failed_frac",
        failed_frac,
        "ratio",
        outcome.attempted as usize,
    ));
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!(
            "result {} {} = {} {} (n={}) {}",
            args.workload, m.name, m.value, m.unit, m.n, ctx.stamp
        );
    }
    println!(
        "checks: {} passed, {} failed {}",
        outcome.checks.passed,
        outcome.checks.failures.len(),
        ctx.stamp
    );
    Ok(outcome)
}

/// Machine-wide CPU tick counters from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() >= 8).then_some(ticks)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> Res<String> {
    let mut metrics = String::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value).into());
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.checks.ok() && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match result_line(&outcome) {
        Ok(line) => {
            println!("{line}");
            if outcome.checks.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
