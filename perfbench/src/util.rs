//! Shared plumbing: run context, statistics, bench-side spans, correctness
//! bookkeeping and what a measured phase hands back.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a workload needs to know about the run it is part of.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch directory for store planes and the mini-DFS (removed at exit).
    pub work: PathBuf,
    /// Where the traced run writes its spans and per-layer table.
    pub out: PathBuf,
    /// `seed=.. nproc=.. commit=..`, appended to every result line.
    pub stamp: String,
}

impl Ctx {
    /// A fresh, empty scratch directory under the run's work dir.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        let dir = self.work.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic per-purpose seed derived from the run seed.
    pub fn seed_for(&self, purpose: u64, index: u64) -> u64 {
        mix(
            self.seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            index,
        )
    }
}

/// SplitMix64-style mixing of two words.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (NaN for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest refresh-time percentile with at least ten samples beyond
/// it: the `(n - 10)`-th order statistic, reported with its percentile.
/// `None` when the run has fewer than eleven refreshes.
pub fn tail_with_ten_beyond(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - 11; // ten samples above this one
    let pct = 100.0 * (rank + 1) as f64 / v.len() as f64;
    Some((v[rank], pct))
}

/// On-CPU time of all of this process's threads so far, in seconds: the
/// sum of the first field (nanoseconds run) of every
/// `/proc/self/task/*/schedstat`. Time the hypervisor gave the vCPU to
/// someone else (steal) is not run time, so this figure does not grow
/// with it the way wall time does. No thread of the program ends during
/// a timed operation, so a difference of two readings is that
/// operation's CPU time.
pub fn cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            n,
        }
    }
}

/// Correctness bookkeeping: every check of a run, and the ones that failed.
#[derive(Default)]
pub struct Checks {
    pub passed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.passed += 1,
            Err(why) => {
                eprintln!("CHECK FAILED: {what}: {why}");
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }

    /// The checker must reject a deliberately perturbed result.
    pub fn self_test(&mut self, what: &str, perturbed_outcome: Result<(), String>) {
        let outcome = match perturbed_outcome {
            Err(_) => Ok(()),
            Ok(()) => Err("checker accepted a deliberately perturbed result".to_string()),
        };
        self.check(&format!("self-test: {what}"), outcome);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Phase {
    /// Every set-up of the phase (generate, build, initial converged run).
    pub setups: Vec<SetupTimes>,
    pub refresh_s: Vec<f64>,
    pub recompute_s: Vec<f64>,
    /// CPU time of each refresh and recompute, all threads ([`cpu_s`]).
    pub refresh_cpu_s: Vec<f64>,
    pub recompute_cpu_s: Vec<f64>,
    /// Per-refresh ledger records (traced phases only).
    pub records: Vec<crate::ledger::RefreshRecord>,
    pub refreshes_failed: u64,
    /// Largest deviation of a refreshed result from its oracle.
    pub result_err: f64,
    /// Store file bytes over encoded structure-input bytes (store workloads).
    pub store_amp: Option<f64>,
    /// The open-loop reader (serving workloads).
    pub reader: Option<crate::reader::ReaderReport>,
    pub serve: crate::ledger::ServeLedger,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        let lookups = self.reader.as_ref().map_or(0, |r| r.attempted);
        self.refresh_s.len() as u64 + self.refreshes_failed + lookups
    }

    pub fn failed(&self) -> u64 {
        self.refreshes_failed + self.reader.as_ref().map_or(0, |r| r.failed())
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted / failed (refreshes plus served lookups).
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line, as declared in `BENCHMARK.json`:
    /// end-to-end (`--trace 0`) or per-layer (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Further figures, printed but not in the result line.
    pub extras: Vec<Metric>,
}

/// Bench-side spans: one per public call the benchmark makes, with a
/// parent and (for refresh work) the id of the refresh it belongs to.
pub struct Spans {
    epoch: Instant,
    next: u64,
    rows: Vec<SpanRow>,
}

struct SpanRow {
    id: u64,
    parent: Option<u64>,
    refresh: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next: 1,
            rows: Vec::new(),
        }
    }

    /// Reserve an id, so children can name a parent recorded after them.
    pub fn id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    pub fn add(
        &mut self,
        id: u64,
        parent: Option<u64>,
        refresh: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.rows.push(SpanRow {
            id,
            parent,
            refresh,
            name: name.into(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Record a leaf span under `parent`.
    pub fn leaf(
        &mut self,
        parent: u64,
        refresh: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.add(id, Some(parent), refresh, name, start, end);
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"refresh\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id,
                opt(r.parent),
                opt(r.refresh),
                r.name,
                r.start_ns,
                r.end_ns
            );
        }
        out
    }
}

/// Split of one setup: generation, session build, initial converged run.
pub struct SetupTimes {
    pub total_s: f64,
    /// CPU time of the whole setup, all threads ([`cpu_s`]).
    pub cpu_s: f64,
    pub datagen_s: f64,
    pub initial_s: f64,
}

/// Record the setup span tree (setup → datagen, build, initial) and return
/// its times. `marks` are the instants between the phases; `cpu0` is
/// [`cpu_s`] read just before the first.
pub fn record_setup(spans: &mut Spans, marks: [Instant; 4], cpu0: f64) -> SetupTimes {
    let cpu = cpu_s() - cpu0;
    let [t0, t1, t2, t3] = marks;
    let id = spans.id();
    spans.leaf(id, None, "setup.datagen", t0, t1);
    spans.leaf(id, None, "setup.build", t1, t2);
    spans.leaf(id, None, "setup.initial", t2, t3);
    spans.add(id, None, None, "setup", t0, t3);
    SetupTimes {
        total_s: secs(t3 - t0),
        cpu_s: cpu,
        datagen_s: secs(t1 - t0),
        initial_s: secs(t3 - t2),
    }
}

/// Apply a delta of in-place updates (`Delta::update` pairs) to a graph
/// whose record `i` is vertex `i`. Unlike `Delta::apply_to` this keeps the
/// vertex order, and it checks every delete against the current record.
pub fn apply_updates<V: i2mr_mapred::types::ValueData + PartialEq>(
    graph: &mut [(u64, V)],
    delta: &i2mr_core::delta::Delta<u64, V>,
) -> Result<(), String> {
    use i2mr_core::delta::Op;
    for r in delta.records() {
        let slot = graph
            .get_mut(r.key as usize)
            .filter(|(k, _)| *k == r.key)
            .ok_or_else(|| format!("delta key {} outside the vertex range", r.key))?;
        match r.op {
            Op::Delete if slot.1 != r.value => {
                return Err(format!("delta deletes a stale record of vertex {}", r.key))
            }
            Op::Delete => {}
            Op::Insert => slot.1 = r.value.clone(),
        }
    }
    Ok(())
}

/// Encoded bytes of a structure input, the denominator of `store_amp`.
pub fn encoded_bytes<V: i2mr_common::codec::Codec>(graph: &[(u64, V)]) -> u64 {
    use i2mr_common::codec::encode_to;
    graph
        .iter()
        .map(|(k, v)| (encode_to(k).len() + encode_to(v).len()) as u64)
        .sum()
}
