//! `apriori-append`: the paper's one-step algorithm (§8.2). Weekly 7.9%
//! append-only tweet batches (`tweets_append`) are refreshed with
//! `AprioriEngine::incremental` (the accumulator Reduce, no MRBG-Store);
//! the baseline is `apriori::plainmr` over the grown corpus.
//!
//! Map-bound and store-free: a store optimisation predicts no change
//! here, while a map, shuffle or pool change shows.
//!
//! The corpus grows 7.9% a week, so refresh cost grows with it. To keep
//! the figures independent of how many weeks fit in a run, weeks come in
//! cycles of `WEEKS`, each from a fresh set-up, and only whole cycles run.

use crate::ledger::RefreshRecord;
use crate::util::{cpu_s, record_setup, secs, Checks, Ctx, Phase, Spans};
use crate::{Res, MIN_SETUPS};
use i2mr_algos::apriori::{self, AprioriEngine, Candidates};
use i2mr_common::telemetry::{TelemetryMode, TraceRecorder};
use i2mr_datagen::delta::tweets_append;
use i2mr_datagen::text::TweetGen;
use i2mr_mapred::{JobConfig, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_TWEETS: u64 = 50_000;
const VOCABULARY: usize = 3_000;
/// Frequent words whose pairs are the candidate 2-itemsets.
const TOP_WORDS: usize = 24;
/// Weekly append, as a share of the current corpus (paper: 7.9%).
const WEEKLY_FRACTION: f64 = 0.079;
/// Weeks per cycle.
const WEEKS: usize = 4;

type Counts = Vec<((String, String), u64)>;

/// Exact comparison of two count tables.
fn exact(got: &Counts, want: &Counts) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} pairs vs {}", got.len(), want.len()));
    }
    match got.iter().zip(want).find(|(g, w)| g != w) {
        Some((g, w)) => Err(format!("{g:?} vs {w:?}")),
        None => Ok(()),
    }
}

/// Run whole cycles (at least `MIN_SETUPS`) until `budget` seconds are
/// spent. Each cycle: set up on a fresh base corpus, refresh `WEEKS`
/// weekly appends, then time plainMR over the grown corpus and check the
/// refreshed counts against it exactly.
pub fn run_phase(
    ctx: &Ctx,
    pool: &WorkerPool,
    mode: TelemetryMode,
    budget: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Res<Phase> {
    let cfg = JobConfig::symmetric(ctx.nproc);
    // No session here: a traced phase records the pool's task spans.
    let recorder = (mode == TelemetryMode::Full)
        .then(|| Arc::new(TraceRecorder::new(mode, ctx.nproc, 1 << 16)));
    pool.set_recorder(recorder.clone());
    let mut ph = Phase::default();
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut cycle = 0u64;
    'cycles: while (cycle as usize) < MIN_SETUPS || Instant::now() < deadline {
        cycle += 1;
        // Set-up: generate, pick the candidate pairs, count the base.
        let c0 = cpu_s();
        let t0 = Instant::now();
        let gen = TweetGen::new(VOCABULARY, ctx.seed_for(1, cycle));
        let mut corpus = gen.generate(0, BASE_TWEETS);
        let t1 = Instant::now();
        let candidates = Candidates::generate(&corpus, TOP_WORDS);
        let mut engine = AprioriEngine::new(cfg.clone(), candidates.clone())?;
        let t2 = Instant::now();
        engine.initial(pool, &corpus)?;
        let t3 = Instant::now();
        ph.setups.push(record_setup(spans, [t0, t1, t2, t3], c0));

        for week in 1..=WEEKS {
            // The week's tweets arrive (untimed).
            let delta = tweets_append(&gen, corpus.len() as u64, WEEKLY_FRACTION);
            if let Some(r) = &recorder {
                r.take(); // drop the events of the untimed work before
            }
            let rid = spans.id();
            let c0 = cpu_s();
            let t0 = Instant::now();
            let run = match engine.incremental(pool, &delta) {
                Ok(run) => run,
                Err(e) => {
                    ph.refreshes_failed += 1;
                    let what = format!("apriori cycle {cycle} week {week}");
                    checks.check(&what, Err(e.to_string()));
                    break 'cycles;
                }
            };
            let t1 = Instant::now();
            spans.leaf(rid, Some(rid), "AprioriEngine::incremental", t0, t1);
            spans.add(rid, None, Some(rid), "refresh", t0, t1);
            ph.refresh_s.push(secs(t1 - t0));
            ph.refresh_cpu_s.push(cpu_s() - c0);
            if let Some(r) = &recorder {
                let mut rec = RefreshRecord {
                    wall_s: secs(t1 - t0),
                    m: run.metrics,
                    iters: 1,
                    converged: true,
                    ..Default::default()
                };
                rec.absorb_trace(&r.take());
                ph.records.push(rec);
            }
            corpus.extend(delta.records().iter().map(|r| (r.key, r.value.clone())));
        }

        // The from-scratch alternative over the grown corpus; exact oracle.
        let c = cpu_s();
        let t = Instant::now();
        let recomputed = apriori::plainmr(pool, &cfg, &corpus, &candidates);
        ph.recompute_s.push(secs(t.elapsed()));
        ph.recompute_cpu_s.push(cpu_s() - c);
        let want = recomputed?.0;
        let got = engine.counts();
        let mut bad = got.clone();
        bad[0].1 += 1;
        checks.self_test("apriori exact checker", exact(&bad, &want));
        let what = format!("apriori cycle {cycle}: counts equal a plainMR recompute");
        checks.check(&what, exact(&got, &want));
    }
    pool.set_recorder(None);
    Ok(ph)
}
