//! Microbench of the self-tuning runtime: **static one-shot compaction
//! policy vs the online controller** across a refresh schedule whose churn
//! shifts under the policy's feet.
//!
//! Both variants replay the *same* precomputed delta schedule against the
//! *same* pristine converged SSSP store image, through the same
//! incremental engine — and land on **bit-identical** state (`summarize` asserts it;
//! the tuner only moves scheduling knobs). What differs is the compaction
//! story:
//!
//! * **static** — `TuningMode::Off` with the policy
//!   `CompactionPolicy::from_cost_model` precomputes before the run (the
//!   paper's §4 posture: evaluate the cost model once). The operator here
//!   calibrated for a long retention horizon, which clamps the model's
//!   garbage trigger at 5% — so during high-churn refreshes the policy
//!   reconstructs a shard every few merges, each rewrite reclaiming a
//!   sliver of the bytes it streams.
//! * **tuned** — `TuningMode::Active`: the per-shard controllers watch the
//!   live garbage fraction at each iteration fence and steer eagerness
//!   *bidirectionally around the base policy* — here they back it off
//!   toward the lazy ceilings until garbage approaches the 30% set-point,
//!   cutting reconstruction traffic several-fold at equal read volume.
//!
//! Two groups, gated by `scripts/bench_check.sh`:
//!
//! * `micro_tuner/shifting` — low→high→low churn: tuned must be ≥ 1.15×
//!   faster than static (the adversarial phase the controller exists for:
//!   the high-churn middle is where the miscalibrated trigger thrashes);
//! * `micro_tuner/steady` — constant low churn: tuned must never fall
//!   below 0.95× of static (controller overhead + misfires must stay in
//!   the noise; in practice the lazy rail wins here too).
//!
//! The workload is deliberately **fixed-size** (no `sized()` scaling): the
//! lever is the relation between the per-refresh garbage rate and the
//! static 5% trigger, which must not shift with `I2MR_BENCH_QUICK`.
//! Snapshot lands in `BENCH_tuner.json`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use i2mr_algos::sssp::{self, Sssp};
use i2mr_common::costmodel::ClusterCostModel;
use i2mr_common::tuner::{TuningConfig, TuningMode};
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iterative::{IterParams, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_core::{Delta, PartitionedData};
use i2mr_datagen::delta::{weighted_graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::compact::CompactionPolicy;
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use std::path::{Path, PathBuf};

const N_PARTS: usize = 4;
/// Vertices: sized so each shard's live image (~0.5 MiB) sits well above
/// the static policy's 64 KiB `min_file_bytes`, so the 5% garbage trigger
/// is what fires — the miscalibration under test.
const N_VERTICES: u64 = 16_000;
const N_EDGES: u64 = N_VERTICES * 6;
const SOURCE: u64 = 0;
const MAX_ITERS: u64 = 500;

/// Churn schedules (fraction of edges re-weighted per refresh). High churn
/// drives wide SSSP correction cascades — many merges, fast garbage
/// growth — which is exactly where the static trigger thrashes.
const SHIFTING: [f64; 10] = [
    0.0005, 0.0005, 0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 0.0005, 0.0005,
];
const STEADY: [f64; 10] = [0.0005; 10];

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-micro-tuner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Recursive dir copy: restores a pristine converged store per sample.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

type SsspData = PartitionedData<u64, Vec<(u64, f64)>, u64, f64>;

/// The static posture both variants start from: the §4 cost model,
/// evaluated once before the run for a 40-refresh horizon. The long
/// horizon clamps `min_garbage_ratio` at 0.05 — rational under the
/// model's seek-priced reads, over-eager on this workload.
fn static_policy() -> CompactionPolicy {
    CompactionPolicy::from_cost_model(&ClusterCostModel::default(), 40)
}

fn runtime_config() -> StoreRuntimeConfig {
    StoreRuntimeConfig {
        policy: static_policy(),
        ..Default::default()
    }
}

/// One converged SSSP computation plus the precomputed refresh schedule
/// (each delta generated against the graph as evolved by the previous
/// ones — identical for both variants).
struct Converged {
    data: SsspData,
    pristine: PathBuf,
    deltas: Vec<Delta<u64, Vec<(u64, f64)>>>,
}

fn converge(pool: &WorkerPool, cfg: &JobConfig, schedule: &[f64], tag: &str) -> Converged {
    let mut graph = GraphGen::new(N_VERTICES, N_EDGES, 0xF1611).weighted();
    let pristine = scratch(&format!("pristine-{tag}"));
    let (data, stores, _) = sssp::i2mr_initial(
        pool,
        cfg,
        &graph,
        SOURCE,
        &pristine,
        runtime_config(),
        MAX_ITERS,
    )
    .unwrap();
    drop(stores); // flushed: the pristine dir is a complete reopenable image

    // Re-weight-only churn (no inserts/deletes): the chunk population stays
    // fixed and every correction cascade turns old versions into garbage.
    let deltas = schedule
        .iter()
        .enumerate()
        .map(|(i, &churn)| {
            let delta = weighted_graph_delta(
                &graph,
                DeltaSpec {
                    change_fraction: churn,
                    delete_fraction: 0.0,
                    insert_fraction: 0.0,
                    seed: 0xFEED + i as u64,
                },
            );
            graph = delta.apply_to(&graph);
            delta
        })
        .collect();
    Converged {
        data,
        pristine,
        deltas,
    }
}

/// Untimed restore of the pristine store image: a live incremental system
/// has its store plane open already, so the copy + open are setup cost.
fn restore(pool: &WorkerPool, conv: &Converged, tag: &str) -> StoreManager {
    let dir = scratch(&format!("work-{tag}"));
    copy_dir(&conv.pristine, &dir);
    StoreManager::open(pool, &dir, N_PARTS, runtime_config()).unwrap()
}

/// Replay the whole refresh schedule through one session (the tuner's
/// controller state persists across refreshes, as it would in a live
/// serving deployment).
fn run_schedule(
    pool: &WorkerPool,
    cfg: &JobConfig,
    conv: &Converged,
    stores: &StoreManager,
    mode: TuningMode,
) -> SsspData {
    let spec = Sssp { source: SOURCE };
    let mut data = conv.data.clone();
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(IncrParams {
            filter_threshold: Some(0.0),
            convergence_epsilon: 1e-12,
            max_iterations: MAX_ITERS,
            ..Default::default()
        })
        .iter(IterParams {
            epsilon: 1e-12,
            max_iterations: MAX_ITERS,
            preserve: PreserveMode::None,
        })
        .store_runtime(runtime_config())
        .tuning(TuningConfig::with_mode(mode))
        .stores_ref(stores)
        .build()
        .unwrap();
    for delta in &conv.deltas {
        session.run_incremental(&mut data, delta).unwrap();
    }
    data
}

fn bench_schedules(c: &mut Criterion) {
    let pool = WorkerPool::new(N_PARTS);
    let cfg = JobConfig::symmetric(N_PARTS);
    for (schedule, tag) in [(&SHIFTING[..], "shifting"), (&STEADY[..], "steady")] {
        let conv = converge(&pool, &cfg, schedule, tag);
        let mut g = c.benchmark_group(format!("micro_tuner/{tag}"));
        g.bench_function(BenchmarkId::new("static", N_PARTS), |b| {
            b.iter_batched(
                || restore(&pool, &conv, &format!("{tag}-static")),
                |stores| run_schedule(&pool, &cfg, &conv, &stores, TuningMode::Off),
                BatchSize::LargeInput,
            )
        });
        g.bench_function(BenchmarkId::new("tuned", N_PARTS), |b| {
            b.iter_batched(
                || restore(&pool, &conv, &format!("{tag}-tuned")),
                |stores| run_schedule(&pool, &cfg, &conv, &stores, TuningMode::Active),
                BatchSize::LargeInput,
            )
        });
        g.finish();
    }
}

/// Shape + equivalence: one schedule replay through each variant must land
/// on **bit-identical** state (controllers move scheduling, never values),
/// and the headline ratios clear the gates `scripts/bench_check.sh`
/// enforces: tuned ≥ 1.15× static on the shifting schedule, ≥ 0.95× on
/// the steady one.
fn summarize(_c: &mut Criterion) {
    let pool = WorkerPool::new(N_PARTS);
    let cfg = JobConfig::symmetric(N_PARTS);
    let conv = converge(&pool, &cfg, &SHIFTING, "eq");

    let stores_off = restore(&pool, &conv, "eq-static");
    let off = run_schedule(&pool, &cfg, &conv, &stores_off, TuningMode::Off);
    let stores_on = restore(&pool, &conv, "eq-tuned");
    let on = run_schedule(&pool, &cfg, &conv, &stores_on, TuningMode::Active);
    assert_eq!(
        off.state, on.state,
        "tuning diverged from static: controllers must not change the fixed point"
    );

    let recs = criterion::completed_records();
    let median = |id: &str| recs.iter().find(|r| r.id == id).map(|r| r.median_ns as f64);
    for (tag, floor) in [("shifting", 1.15), ("steady", 0.95)] {
        let s = median(&format!("micro_tuner/{tag}/static/{N_PARTS}"));
        let t = median(&format!("micro_tuner/{tag}/tuned/{N_PARTS}"));
        match (s, t) {
            (Some(s), Some(t)) if t > 0.0 => {
                let speedup = s / t;
                let ok = if speedup >= floor { "OK" } else { "MISMATCH" };
                println!(
                    "shape: {tag} schedule at {N_VERTICES} vertices: tuned {speedup:.2}x vs \
                     static (target >= {floor}x) .. {ok}"
                );
            }
            _ => println!("shape: {tag} medians missing .. SKIPPED"),
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_schedules, summarize
}
criterion_main!(benches);
