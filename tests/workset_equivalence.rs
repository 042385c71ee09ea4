//! Workset-scheduled refresh equivalence: seeded refreshes across churn
//! levels, for PageRank and SSSP, checked two ways:
//!
//! * against the **recompute oracle** — the iterative engine converged
//!   from scratch on the post-delta graph;
//! * against **recorded digests** of the refreshed state (every scenario)
//!   and of each shard's MRBG-Store export (every scenario without a P∆
//!   bailout, whose final preservation pass rewrites the store). The
//!   digests were recorded before workset scheduling became the only
//!   incremental path, when a full-width engine produced the same bits, so
//!   they pin down that scheduling is invisible in the results.
//!
//! Also pins the workset accounting contract: on low-churn refreshes the
//! keys actually processed track the workset size, not the state width.

use i2mapreduce::algos::{pagerank, sssp};
use i2mapreduce::common::codec::encode_to;
use i2mapreduce::common::hash::stable_hash64;
use i2mapreduce::common::metrics::JobMetrics;
use i2mapreduce::core::incr_iter::IncrParams;
use i2mapreduce::core::iterative::PreserveMode;
use i2mapreduce::datagen::delta::{graph_delta, weighted_graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::prelude::*;
use i2mapreduce::store::StoreManager;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-wstest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const N: usize = 3;
const CHURNS: [(f64, &str); 3] = [(0.001, "0.1pct"), (0.01, "1pct"), (0.1, "10pct")];

/// Recorded digests: the encoded state, and each shard's export when the
/// refresh never bailed out.
struct Recorded {
    state: u64,
    shards: Option<[u64; N]>,
}

fn assert_digests<T: i2mapreduce::common::codec::Codec>(
    tag: &str,
    state: &T,
    stores: &StoreManager,
    want: &Recorded,
) {
    assert_eq!(
        stable_hash64(&encode_to(state)),
        want.state,
        "{tag}: state digest"
    );
    if let Some(shards) = want.shards {
        for (p, digest) in shards.into_iter().enumerate() {
            let export = stores.export(p).unwrap();
            assert_eq!(stable_hash64(&export), digest, "{tag}: shard {p} digest");
        }
    }
}

/// Run one seeded PageRank refresh, check it against the recorded digests
/// and the recompute oracle (largest absolute rank error below
/// `tolerance`), and return the run's total metrics.
fn pagerank_churn(
    churn: f64,
    tag: &str,
    params: IncrParams,
    want: Recorded,
    tolerance: f64,
) -> JobMetrics {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = pagerank::PageRank::default();
    let graph = GraphGen::new(1000, 6000, 0xD17A).generate();

    let (mut data, stores, _) = pagerank::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        &spec,
        &scratch(&format!("pr-{tag}")),
        Default::default(),
        300,
        1e-11,
        PreserveMode::FinalOnly,
    )
    .unwrap();

    let delta = graph_delta(
        &graph,
        DeltaSpec {
            change_fraction: churn,
            delete_fraction: 0.1,
            insert_fraction: 0.01,
            seed: 0xFEED,
        },
    );
    let (report, _) =
        pagerank::i2mr_incremental(&pool, &cfg, &mut data, &stores, &spec, &delta, params, None)
            .unwrap();
    assert!(report.converged, "{tag}: did not converge");
    assert_eq!(
        report.mrbg_turned_off_at.is_some(),
        want.shards.is_none(),
        "{tag}: P∆ bailout"
    );
    assert_digests(tag, &data.state, &stores, &want);

    let updated = delta.apply_to(&graph);
    let (oracle, _) = pagerank::itermr(&pool, &cfg, &updated, &spec, 300, 1e-11).unwrap();
    let got = data.state_snapshot();
    let want = oracle.state_snapshot();
    assert_eq!(got.len(), want.len(), "{tag}: key sets differ");
    for ((k, a), (kb, b)) in got.iter().zip(&want) {
        assert_eq!(k, kb, "{tag}: key sets differ");
        assert!((a - b).abs() < tolerance, "{tag}: vertex {k}: {a} vs {b}");
    }
    report.total_metrics()
}

fn exact_params() -> IncrParams {
    IncrParams {
        max_iterations: 500,
        convergence_epsilon: 1e-9,
        ..Default::default()
    }
}

#[test]
fn pagerank_refresh_reproduces_recorded_digests_across_churn_levels() {
    // Exact propagation (no CPC): the change wave spreads past the P∆
    // threshold at every churn level, so only the state is comparable.
    let states = [0xeb241eadf0c5f6eb, 0x8b7e7173db29a9fc, 0xea88a55cf0ef9a9c];
    for ((churn, tag), state) in CHURNS.into_iter().zip(states) {
        let want = Recorded {
            state,
            shards: None,
        };
        pagerank_churn(churn, tag, exact_params(), want, 1e-6);
    }
}

#[test]
fn pagerank_cpc_refresh_reproduces_recorded_digests() {
    // P∆ bails out here too, and the fallback iterates to the numerical
    // epsilon, so CPC's pruning leaves no error against the oracle.
    let params = IncrParams {
        filter_threshold: Some(1e-3),
        ..exact_params()
    };
    let states = [0x5ecf54e5ad17f401, 0x437a1baad6e630d8, 0x41dc1ff1a6f736c3];
    for ((churn, tag), state) in CHURNS.into_iter().zip(states) {
        let want = Recorded {
            state,
            shards: None,
        };
        pagerank_churn(churn, &format!("{tag}-cpc"), params, want, 1e-6);
    }
}

#[test]
fn pagerank_low_churn_work_tracks_workset_not_state_width() {
    // CPC damps the propagation wave and P∆ is disabled, so the whole
    // refresh stays workset-scheduled and the accounting is observable
    // end to end.
    let total = pagerank_churn(
        0.001,
        "metrics",
        IncrParams {
            filter_threshold: Some(0.01),
            pdelta_threshold: 2.0,
            ..exact_params()
        },
        Recorded {
            state: 0xe0fd6976fcc02692,
            shards: Some([0x6388c56b87429f46, 0x93f0d66115714ce2, 0x97491547d6f41282]),
        },
        // CPC at 0.01 stops propagating small changes: within its bound.
        5e-2,
    );
    assert!(total.workset_keys > 0, "seeded delta must touch something");
    assert_eq!(total.jobs_started, 1, "one refresh job, no fallback");
    assert!(total.workset_iterations >= 1, "depth counter recorded");
    assert!(total.workset_skipped > 0, "CPC pruned workset candidates");
    // Keys processed ≈ workset: each workset key re-reduces its direct
    // dependents (mean out-degree 6 here), never the full state.
    assert!(
        total.reduce_invocations <= 4 * total.workset_keys,
        "reduce invocations {} not workset-bound (workset {})",
        total.reduce_invocations,
        total.workset_keys
    );
    let full_width = 1000 * total.workset_iterations;
    assert!(
        total.reduce_invocations < full_width / 4,
        "reduce invocations {} ~ full width {}",
        total.reduce_invocations,
        full_width
    );
}

/// Same shape for SSSP (FT = 0, improvement-only deltas): exact, so the
/// oracle comparison is bitwise-tight and no refresh bails out.
#[test]
fn sssp_refresh_reproduces_recorded_digests_across_churn_levels() {
    let recorded = [
        Recorded {
            state: 0x437ceb8924808005,
            shards: Some([0xff12df64e216ada6, 0xab44bf4690c9ab84, 0x04ac2da431b01d36]),
        },
        Recorded {
            state: 0x30583a2ce0b607c9,
            shards: Some([0xd4fa6e29bfe9efc7, 0xe33ebc4918231e83, 0x90300324e1c62901]),
        },
        Recorded {
            state: 0xdbca70f4fcf0a705,
            shards: Some([0xc1c5ea1e8198518f, 0xf4733d744f004061, 0x2f1682bda29075a5]),
        },
    ];
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let graph = GraphGen::new(1000, 6000, 0x55E0).weighted();
    for ((churn, tag), want) in CHURNS.into_iter().zip(recorded) {
        let (mut data, stores, _) = sssp::i2mr_initial(
            &pool,
            &cfg,
            &graph,
            0,
            &scratch(&format!("sssp-{tag}")),
            Default::default(),
            300,
        )
        .unwrap();
        let delta = weighted_graph_delta(
            &graph,
            DeltaSpec {
                change_fraction: churn,
                delete_fraction: 0.0,
                insert_fraction: 0.01,
                seed: 0xABBA,
            },
        );
        let (report, _) =
            sssp::i2mr_incremental(&pool, &cfg, &mut data, &stores, 0, &delta, 300).unwrap();
        assert!(report.converged, "{tag}");
        assert!(report.mrbg_turned_off_at.is_none(), "{tag}: P∆ bailout");
        assert_digests(tag, &data.state, &stores, &want);

        let (oracle, _) = sssp::itermr(&pool, &cfg, &delta.apply_to(&graph), 0, 300).unwrap();
        assert_eq!(data.state_snapshot(), oracle.state_snapshot(), "{tag}");
    }
}
