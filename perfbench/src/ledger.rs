//! The per-layer ledger of the traced run.
//!
//! Every figure comes from what the public calls already return
//! (`JobMetrics`, `IterationStats`, the run reports) or from the session's
//! existing trace (`TaskStart`/`TaskEnd`, `StoreOp`, `CheckpointSave`); the
//! benchmark adds no emission sites. Values are means per refresh unless
//! they are fractions, so the self times plus `core.unattributed_s` add up
//! to the mean traced refresh wall time exactly.

use crate::util::{mean, median, Metric, SetupTimes};
use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::{EventKind, StoreOpKind, TraceLog};
use i2mr_core::iterative::IterationStats;
use i2mr_core::run::SessionFinish;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Everything the ledger knows about one traced refresh.
#[derive(Default)]
pub struct RefreshRecord {
    /// Refresh wall time: engine call plus settle.
    pub wall_s: f64,
    /// The settle after the engine call (`RunSession::finish`: deferred
    /// index flush, compaction fence, trailing counters).
    pub settle_s: f64,
    /// Engine counters of the refresh, trailing store work included.
    pub m: JobMetrics,
    pub iters: u64,
    pub converged: bool,
    pub changed_keys: u64,
    pub mrbg_off: bool,
    /// Per-task wall times from `TaskStart`/`TaskEnd` pairs.
    pub task_us: Vec<f64>,
    pub busy_s: f64,
    pub merge_s: f64,
    pub compact_s: f64,
    pub checkpoint_s: f64,
    pub dfs_bytes_written: u64,
    /// MRBG-Store `file_bytes()` after the settle (0 without a store).
    pub file_bytes: u64,
}

impl RefreshRecord {
    /// The record of one traced refresh, from the engine report's totals
    /// and iterations, and the session's settled trailing counters and
    /// trace. `marks` are the refresh's start, the engine call's return and
    /// the settle's end. `None` for an untraced session.
    pub fn from_run(
        mut m: JobMetrics,
        iterations: &[IterationStats],
        converged: bool,
        mrbg_turned_off_at: Option<u64>,
        fin: &SessionFinish,
        marks: [Instant; 3],
        file_bytes: u64,
    ) -> Option<Self> {
        let trace = fin.trace.as_ref()?;
        let [start, returned, settled] = marks;
        m.merge(&fin.trailing);
        let mut rec = RefreshRecord {
            wall_s: (settled - start).as_secs_f64(),
            settle_s: (settled - returned).as_secs_f64(),
            m,
            iters: iterations.len() as u64,
            converged,
            changed_keys: iterations.iter().map(|it| it.changed_keys).sum(),
            mrbg_off: mrbg_turned_off_at.is_some(),
            file_bytes,
            ..Default::default()
        };
        rec.absorb_trace(trace);
        Some(rec)
    }

    /// Fold the refresh's engine trace into the record.
    pub fn absorb_trace(&mut self, log: &TraceLog) {
        let mut open: HashMap<(u32, &'static str, u64, u64, u32), u64> = HashMap::new();
        for e in log.iter() {
            match &e.kind {
                EventKind::TaskStart { task, attempt, .. } => {
                    open.insert(
                        (e.worker, task.kind, task.index, task.iteration, *attempt),
                        e.at_nanos,
                    );
                }
                EventKind::TaskEnd { task, attempt, .. } => {
                    let key = (e.worker, task.kind, task.index, task.iteration, *attempt);
                    if let Some(start) = open.remove(&key) {
                        let ns = e.at_nanos.saturating_sub(start) as f64;
                        self.task_us.push(ns / 1e3);
                        self.busy_s += ns / 1e9;
                    }
                }
                EventKind::StoreOp { op, nanos, .. } => match op {
                    StoreOpKind::Merge | StoreOpKind::Append => self.merge_s += *nanos as f64 / 1e9,
                    StoreOpKind::Compact => self.compact_s += *nanos as f64 / 1e9,
                    StoreOpKind::Salvage | StoreOpKind::Rebuild => {}
                },
                EventKind::CheckpointSave { nanos, .. } => self.checkpoint_s += *nanos as f64 / 1e9,
                _ => {}
            }
        }
    }

    fn stage_s(&self) -> [f64; 4] {
        let st = &self.m.stages;
        [st.map, st.shuffle, st.sort, st.reduce].map(|d| d.as_secs_f64())
    }

    /// Wall time no layer accounts for: the refresh minus the stage walls
    /// (store merge runs inside reduce), checkpoint saves and the settle.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.stage_s().iter().sum::<f64>() - self.checkpoint_s - self.settle_s
    }
}

/// Serving-plane figures of the traced run (zero where nothing serves).
#[derive(Default)]
pub struct ServeLedger {
    pub lookups: u64,
    pub hits: u64,
    pub chases: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Everything besides the refresh records that the ledger reports.
pub struct LedgerInputs<'a> {
    pub records: &'a [RefreshRecord],
    pub setups: &'a [SetupTimes],
    pub serve: ServeLedger,
    pub n_workers: usize,
    /// Store file bytes over encoded structure-input bytes (0 without a store).
    pub store_amp: f64,
    /// Median untraced refresh wall time, for `trace.overhead_frac`.
    pub untraced_refresh_s: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(inp: &LedgerInputs<'_>) -> Vec<Metric> {
    let recs = inp.records;
    let n = recs.len();
    let per = |f: &dyn Fn(&RefreshRecord) -> f64| mean(&recs.iter().map(f).collect::<Vec<_>>());
    let frac = |f: &dyn Fn(&RefreshRecord) -> bool| {
        recs.iter().filter(|r| f(r)).count() as f64 / n.max(1) as f64
    };
    let all_tasks: Vec<f64> = recs
        .iter()
        .flat_map(|r| r.task_us.iter().copied())
        .collect();
    let wall_total: f64 = recs.iter().map(|r| r.wall_s).sum();
    let busy_total: f64 = recs.iter().map(|r| r.busy_s).sum();
    let traced_refresh_s = median(&recs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let s = &inp.serve;
    let per_refresh = |v: u64| v as f64 / n.max(1) as f64;
    let setup =
        |f: &dyn Fn(&SetupTimes) -> f64| median(&inp.setups.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("mapred.map_s", per(&|r| r.stage_s()[0]), "s", n),
        Metric::new("mapred.shuffle_s", per(&|r| r.stage_s()[1]), "s", n),
        Metric::new("mapred.sort_s", per(&|r| r.stage_s()[2]), "s", n),
        Metric::new("mapred.reduce_s", per(&|r| r.stage_s()[3]), "s", n),
        Metric::new(
            "mapred.shuffled_bytes",
            per(&|r| r.m.shuffled_bytes as f64),
            "bytes",
            n,
        ),
        Metric::new(
            "mapred.pool.tasks",
            per(&|r| r.task_us.len() as f64),
            "count",
            n,
        ),
        Metric::new(
            "mapred.pool.task_p50_us",
            if all_tasks.is_empty() {
                0.0
            } else {
                median(&all_tasks)
            },
            "us",
            all_tasks.len(),
        ),
        Metric::new(
            "mapred.pool.busy_frac",
            busy_total / (wall_total * inp.n_workers as f64).max(f64::MIN_POSITIVE),
            "ratio",
            n,
        ),
        Metric::new(
            "mapred.pool.retries",
            per(&|r| r.m.retries as f64),
            "count",
            n,
        ),
        Metric::new("store.merge_s", per(&|r| r.merge_s), "s", n),
        Metric::new("store.settle_s", per(&|r| r.settle_s), "s", n),
        Metric::new(
            "store.reads",
            per(&|r| r.m.store_io.reads as f64),
            "count",
            n,
        ),
        Metric::new(
            "store.bytes_read",
            per(&|r| r.m.store_io.bytes_read as f64),
            "bytes",
            n,
        ),
        Metric::new(
            "store.writes",
            per(&|r| r.m.store_io.writes as f64),
            "count",
            n,
        ),
        Metric::new(
            "store.bytes_written",
            per(&|r| r.m.store_io.bytes_written as f64),
            "bytes",
            n,
        ),
        Metric::new("store.compact_s", per(&|r| r.compact_s), "s", n),
        Metric::new(
            "store.compactions",
            per(&|r| r.m.store_compactions as f64),
            "count",
            n,
        ),
        Metric::new(
            "store.bytes_reclaimed",
            per(&|r| r.m.store_bytes_reclaimed as f64),
            "bytes",
            n,
        ),
        Metric::new(
            "store.file_bytes",
            recs.last().map_or(0.0, |r| r.file_bytes as f64),
            "bytes",
            1,
        ),
        Metric::new("store.amp", inp.store_amp, "ratio", 1),
        Metric::new("store.serve.lookups", per_refresh(s.lookups), "count", n),
        Metric::new(
            "store.serve.hit_frac",
            s.hits as f64 / s.lookups.max(1) as f64,
            "ratio",
            s.lookups as usize,
        ),
        Metric::new("store.serve.chases", per_refresh(s.chases), "count", n),
        Metric::new("store.serve.p50_us", s.p50_us, "us", s.lookups as usize),
        Metric::new("store.serve.p99_us", s.p99_us, "us", s.lookups as usize),
        Metric::new("core.iters", per(&|r| r.iters as f64), "count", n),
        Metric::new("core.converged_frac", frac(&|r| r.converged), "ratio", n),
        Metric::new(
            "core.changed_keys",
            per(&|r| r.changed_keys as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.map_calls",
            per(&|r| r.m.map_invocations as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.reduce_calls",
            per(&|r| r.m.reduce_invocations as f64),
            "count",
            n,
        ),
        Metric::new("core.mrbg_off", frac(&|r| r.mrbg_off), "ratio", n),
        Metric::new(
            "core.workset_keys",
            per(&|r| r.m.workset_keys as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.workset_skipped",
            per(&|r| r.m.workset_skipped as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.ingest.records",
            per(&|r| r.m.ingested_records as f64),
            "count",
            n,
        ),
        Metric::new(
            "core.ingest.invalidated",
            per(&|r| r.m.invalidated_keys as f64),
            "count",
            n,
        ),
        Metric::new("dfs.checkpoint_s", per(&|r| r.checkpoint_s), "s", n),
        Metric::new(
            "dfs.bytes_written",
            per(&|r| r.dfs_bytes_written as f64),
            "bytes",
            n,
        ),
        Metric::new(
            "setup.datagen_s",
            setup(&|s| s.datagen_s),
            "s",
            inp.setups.len(),
        ),
        Metric::new(
            "setup.initial_s",
            setup(&|s| s.initial_s),
            "s",
            inp.setups.len(),
        ),
        Metric::new("core.unattributed_s", per(&|r| r.unattributed_s()), "s", n),
        Metric::new(
            "trace.overhead_frac",
            traced_refresh_s / inp.untraced_refresh_s - 1.0,
            "ratio",
            n,
        ),
        Metric::new("refresh.traced_mean_s", per(&|r| r.wall_s), "s", n),
    ]
}

/// The human-readable ledger: the additive split of the mean traced
/// refresh, then every per-layer metric.
pub fn render(records: &[RefreshRecord], metrics: &[Metric]) -> String {
    let mut out = String::new();
    let wall = mean(&records.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let part = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let parts = [
        "mapred.map_s",
        "mapred.shuffle_s",
        "mapred.sort_s",
        "mapred.reduce_s",
        "dfs.checkpoint_s",
        "store.settle_s",
        "core.unattributed_s",
    ];
    let _ = writeln!(
        out,
        "ledger: mean traced refresh {:.6} s over {} refreshes =",
        wall,
        records.len()
    );
    let mut sum = 0.0;
    for p in parts {
        let v = part(p);
        sum += v;
        let share = if wall > 0.0 { 100.0 * v / wall } else { 0.0 };
        let _ = writeln!(out, "  {p:<22} {v:>12.6} s  {share:>6.1}%");
    }
    let _ = writeln!(out, "  {:<22} {sum:>12.6} s  (sum of self times)", "total");
    let _ = writeln!(out, "per-layer metrics:");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<26} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
    out
}
