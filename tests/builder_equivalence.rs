//! The `RunBuilder` surface end to end:
//!
//! * **Read-your-writes through serving**: a `ServeHandle` opened on a
//!   session's store plane observes an incremental refresh's writes,
//!   across a forced compaction generation bump.
//! * **Cursor ingestion**: invalidations recompute exactly the affected
//!   keys, a producer-side config bump stales the cursor, and
//!   re-beginning it recovers.

use i2mapreduce::algos::pagerank::PageRank;
use i2mapreduce::core::build_partitioned;
use i2mapreduce::core::ingest::{IngestCursor, MemSource};
use i2mapreduce::datagen::delta::{graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::prelude::*;
use i2mapreduce::store::Chunk;

const N: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "i2mr-builder-eq-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A serving handle on a session's store plane sees the writes of an
/// incremental refresh, and keeps answering identically across a forced
/// compaction of every shard (file generation bump under live readers).
#[test]
fn serve_reads_your_writes_across_forced_compaction() {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = PageRank::default();
    let graph = GraphGen::new(200, 1400, 0x5E4E).generate();

    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .incr(IncrParams {
            convergence_epsilon: 1e-9,
            max_iterations: 80,
            ..Default::default()
        })
        .store_dir(scratch("serve-ryw"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph.clone());
    session.run_initial(&mut data).unwrap();
    let stores = session.stores().expect("session owns a store plane");

    // Pin down every live chunk through the serving plane.
    let serve = session.serve().unwrap();
    let mut live: Vec<(usize, Chunk)> = Vec::new();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(
                serve.get(p, &chunk.key).unwrap().as_ref(),
                Some(&chunk),
                "serving plane disagrees with the exclusive read path"
            );
            live.push((p, chunk));
        }
    }
    assert!(!live.is_empty());

    // Refresh through the same session while the handle stays open: the
    // merge bumps shard data versions, so cached entries must refetch.
    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0x5E4E));
    session.run_incremental(&mut data, &delta).unwrap();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(serve.get(p, &chunk.key).unwrap(), Some(chunk));
        }
    }

    // Force an offline compaction of every shard: live data is unchanged
    // but every data file is rewritten (reader generation bump). The
    // handle's pooled readers must chase the new files transparently.
    stores.compact_all(u64::MAX).unwrap();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(serve.get(p, &chunk.key).unwrap(), Some(chunk));
        }
    }
    let metrics = serve.metrics();
    assert!(metrics.hits + metrics.misses > 0);
}

/// Cursor-fed refreshes: an invalidation recomputes exactly the affected
/// key (workset = its delete+re-insert, state unchanged at the fixed
/// point), a source config bump stales the cursor, and re-beginning it
/// replays cleanly.
#[test]
fn stale_cursor_invalidation_recomputes_exactly_the_affected_keys() {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = PageRank::default();
    let graph = GraphGen::new(120, 700, 0xC4A5).generate();

    let init = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 200,
            epsilon: 1e-10,
            preserve: PreserveMode::FinalOnly,
        })
        .store_dir(scratch("cursor"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph.clone());
    assert!(init.run_initial(&mut data).unwrap().converged);
    let stores = init.finish().unwrap().stores.expect("session-owned");
    let baseline = data.state_snapshot();

    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg)
        .incr(IncrParams {
            // Keep the refresh workset-scheduled so worksets[] mirrors
            // exactly what the invalidation touched.
            pdelta_threshold: 2.0,
            max_iterations: 300,
            ..Default::default()
        })
        .stores_ref(&stores)
        .build()
        .unwrap();

    let src: MemSource<u64, Vec<u64>> = MemSource::new(2);
    let mut cursor = IngestCursor::begin(&src, session.config().config_hash());

    // Nothing ingested: a no-op refresh that never enters the engine.
    let rep = session.refresh_from(&mut data, &mut cursor, &src).unwrap();
    assert!(rep.converged);
    assert!(rep.iterations.is_empty());

    // Invalidate one live vertex: the refresh re-maps exactly its
    // structure record (delete + re-insert in the workset) and settles
    // back onto the same fixed point.
    let key = graph[7].0;
    src.push_invalidate(0, key);
    let rep = session.refresh_from(&mut data, &mut cursor, &src).unwrap();
    assert!(rep.converged);
    assert_eq!(rep.worksets[0], 2, "delete + re-insert of the one key");
    assert_eq!(rep.per_iteration[0].invalidated_keys, 1);
    assert_eq!(rep.per_iteration[0].ingested_records, 0);
    // The recompute settles back onto the same fixed point — same key
    // set, values within convergence tolerance (the re-derived value
    // walks to the fixed point, it doesn't copy the old bits).
    let recomputed = data.state_snapshot();
    assert_eq!(
        baseline.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        recomputed.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );
    for ((k, a), (_, b)) in baseline.iter().zip(&recomputed) {
        assert!((a - b).abs() < 1e-6, "key {k}: {a} vs {b}");
    }

    // Producer-side config change: the cursor is stale, the refresh is
    // refused, and the high-water marks stay put.
    src.bump_config();
    src.push_insert(1, 9999, vec![key]);
    let err = session.refresh_from(&mut data, &mut cursor, &src);
    assert!(err.is_err(), "stale cursor must refuse to ingest");
    assert_eq!(data.state_snapshot(), recomputed, "no partial ingestion");

    // Re-begin against the new source version: the feed replays from the
    // head and the new record lands (a new vertex pointing at `key`).
    let mut cursor = IngestCursor::begin(&src, session.config().config_hash());
    let rep = session.refresh_from(&mut data, &mut cursor, &src).unwrap();
    assert!(rep.converged);
    assert_eq!(rep.per_iteration[0].ingested_records, 1);
    assert!(
        data.state_snapshot().iter().any(|(k, _)| *k == 9999),
        "replayed record must join the state"
    );
}
