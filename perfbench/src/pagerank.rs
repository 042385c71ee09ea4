//! `pagerank-10pct`: the Fig. 8 PageRank scenario. A sequence of 10%
//! `graph_delta`s, each applied to the current graph and refreshed with
//! `RunSession::run_incremental` under CPC (FT = 1e-3, ε = 1e-4, as in
//! fig08) to the engine's own convergence; recompute is IterMR at the same
//! ε on the same post-delta graph, timed right after each refresh.
//!
//! Map, shuffle, sort and the store's full-window merge all carry load, so
//! a store change shows in `refresh_s` and not in `recompute_s`.
//!
//! CPC leaves residuals behind that later refreshes inherit, so refresh
//! cost climbs over a sequence (on a 4k-vertex graph: 8 iterations for the
//! first refresh, 30 and more by the fifth). The run is therefore made of epochs: each sets up a
//! fresh graph and converged state, then refreshes `EPOCH_REFRESHES`
//! successive deltas. Only whole epochs run, so every run weighs each
//! position in the sequence the same however many epochs fit.

use crate::ledger::RefreshRecord;
use crate::util::{
    apply_updates, cpu_s, encoded_bytes, record_setup, secs, Checks, Ctx, Phase, Spans,
};
use crate::{Res, MIN_SETUPS};
use i2mr_algos::pagerank::{self, PageRank};
use i2mr_common::telemetry::{TelemetryConfig, TelemetryMode};
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iter_engine::build_partitioned;
use i2mr_core::iterative::{IterParams, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_datagen::delta::{graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use std::time::{Duration, Instant};

const VERTICES: u64 = 5_000;
const EDGES: u64 = 90_000;
/// CPC filter threshold (fig08: the paper's FT = 1, scaled to our ranks).
const FILTER_THRESHOLD: f64 = 1e-3;
/// Convergence ε of the initial run, every refresh and every recompute.
const EPSILON: f64 = 1e-4;
/// Iteration cap of every run. Refreshes converge below it (a refresh
/// that hits it fails the run's convergence check).
const MAX_ITERS: u64 = 400;
/// ε of the untimed oracle that `result_err` is measured against.
const ORACLE_EPSILON: f64 = 1e-10;
/// Declared bound on `result_err`: the largest absolute rank deviation of
/// the refreshed result from a tightly converged recompute.
const ERR_BOUND: f64 = 0.01;
/// Successive deltas refreshed per epoch.
const EPOCH_REFRESHES: usize = 8;

/// Largest absolute rank deviation; an error when it exceeds `bound`.
fn within(got: &[(u64, f64)], want: &[(u64, f64)], bound: f64) -> Result<f64, String> {
    if got.len() != want.len() {
        return Err(format!("{} vertices vs {}", got.len(), want.len()));
    }
    let mut worst = 0.0f64;
    for ((kg, vg), (kw, vw)) in got.iter().zip(want) {
        if kg != kw {
            return Err(format!("vertex {kg} vs vertex {kw}"));
        }
        let err = (vg - vw).abs();
        if err.is_nan() || err > bound {
            return Err(format!(
                "vertex {kg}: {vg} vs {vw} (|err| {err:e} > {bound:e})"
            ));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

/// Run whole epochs (at least `MIN_SETUPS`) until `budget` seconds are
/// spent. Each epoch: set up, then per delta refresh and time a recompute.
/// The final refreshed ranks are checked against a tightly converged,
/// untimed recompute.
pub fn run_phase(
    ctx: &Ctx,
    pool: &WorkerPool,
    mode: TelemetryMode,
    budget: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Res<Phase> {
    let n = ctx.nproc;
    let spec = PageRank::default();
    let mut ph = Phase::default();
    let mut iters = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut epoch = 0u64;
    'epochs: loop {
        epoch += 1;
        // Set-up: generate, build, converge with MRBGraph preservation.
        let c0 = cpu_s();
        let t0 = Instant::now();
        let mut graph = GraphGen::new(VERTICES, EDGES, ctx.seed_for(1, epoch)).generate();
        let t1 = Instant::now();
        let dir = ctx.scratch("pagerank");
        let stores =
            StoreManager::create(pool, dir.join("store"), n, StoreRuntimeConfig::default())?;
        let session = RunBuilder::new(&spec)
            .pool(pool)
            .job(JobConfig::symmetric(n))
            .iter(IterParams {
                max_iterations: MAX_ITERS,
                epsilon: EPSILON,
                preserve: PreserveMode::FinalOnly,
            })
            .telemetry(TelemetryConfig::with_mode(mode))
            .stores_ref(&stores)
            .build()?;
        let mut data = build_partitioned(&spec, n, graph.clone());
        let t2 = Instant::now();
        let report = session.run_initial(&mut data)?;
        session.finish()?;
        let t3 = Instant::now();
        if !report.converged {
            return Err("initial PageRank run did not converge".into());
        }
        ph.setups.push(record_setup(spans, [t0, t1, t2, t3], c0));

        for i in 1..=EPOCH_REFRESHES {
            // The delta arrives (untimed): 10% of vertices rewire a link.
            let seed = ctx.seed_for(5, epoch * 1000 + i as u64);
            let delta = graph_delta(&graph, DeltaSpec::ten_percent(seed));
            apply_updates(&mut graph, &delta)?;

            let rid = spans.id();
            let c0 = cpu_s();
            let t0 = Instant::now();
            let session = RunBuilder::new(&spec)
                .pool(pool)
                .job(JobConfig::symmetric(n))
                .incr(IncrParams {
                    filter_threshold: Some(FILTER_THRESHOLD),
                    convergence_epsilon: EPSILON,
                    max_iterations: MAX_ITERS,
                    ..Default::default()
                })
                .iter(IterParams {
                    max_iterations: MAX_ITERS,
                    epsilon: EPSILON,
                    preserve: PreserveMode::None,
                })
                .telemetry(TelemetryConfig::with_mode(mode))
                .stores_ref(&stores)
                .build()?;
            let t1 = Instant::now();
            let report = match session.run_incremental(&mut data, &delta) {
                Ok(r) => r,
                Err(e) => {
                    // The state can no longer be trusted: stop refreshing.
                    ph.refreshes_failed += 1;
                    let what = format!("pagerank epoch {epoch} refresh {i}");
                    checks.check(&what, Err(e.to_string()));
                    break 'epochs;
                }
            };
            let t2 = Instant::now();
            let fin = session.finish()?;
            let t3 = Instant::now();
            spans.leaf(rid, Some(rid), "session.build", t0, t1);
            spans.leaf(rid, Some(rid), "run_incremental", t1, t2);
            spans.leaf(rid, Some(rid), "settle", t2, t3);
            spans.add(rid, None, Some(rid), "refresh", t0, t3);
            ph.refresh_s.push(secs(t3 - t0));
            ph.refresh_cpu_s.push(cpu_s() - c0);
            iters.push(report.iterations.len() as f64);
            checks.check(
                &format!("pagerank epoch {epoch} refresh {i} converged below the iteration cap"),
                if report.converged {
                    Ok(())
                } else {
                    Err(format!("{} iterations", report.iterations.len()))
                },
            );
            ph.records.extend(RefreshRecord::from_run(
                report.total_metrics(),
                &report.iterations,
                report.converged,
                report.mrbg_turned_off_at,
                &fin,
                [t0, t2, t3],
                stores.file_bytes(),
            ));

            // The from-scratch alternative on the same post-delta graph.
            let c = cpu_s();
            let t = Instant::now();
            pagerank::itermr(
                pool,
                &JobConfig::symmetric(n),
                &graph,
                &spec,
                MAX_ITERS,
                EPSILON,
            )?;
            ph.recompute_s.push(secs(t.elapsed()));
            ph.recompute_cpu_s.push(cpu_s() - c);
        }
        ph.store_amp = Some(stores.file_bytes() as f64 / encoded_bytes(&graph) as f64);

        if (epoch as usize) < MIN_SETUPS || Instant::now() < deadline {
            continue;
        }
        // The run's final refresh against an untimed, tightly converged
        // oracle (the checker first proves it rejects a perturbed result).
        let (oracle, _) = pagerank::itermr(
            pool,
            &JobConfig::symmetric(n),
            &graph,
            &spec,
            100 * MAX_ITERS,
            ORACLE_EPSILON,
        )?;
        let want = oracle.state_snapshot();
        let got = data.state_snapshot();
        let mut bad = got.clone();
        bad[0].1 += 2.0 * ERR_BOUND;
        checks.self_test(
            "pagerank bound checker",
            within(&bad, &want, ERR_BOUND).map(|_| ()),
        );
        let outcome = within(&got, &want, ERR_BOUND).map(|err| ph.result_err = err);
        checks.check(
            &format!("pagerank final refresh within {ERR_BOUND} of the oracle"),
            outcome,
        );
        break;
    }
    println!(
        "pagerank: iteration cap {MAX_ITERS}; {epoch} epochs of {EPOCH_REFRESHES} refreshes, {:.1} iterations per refresh (median)",
        crate::util::median(&iters)
    );
    Ok(ph)
}
