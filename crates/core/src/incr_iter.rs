//! Incremental iterative processing (paper §5), scheduled by workset.
//!
//! A sequence of jobs `A_1 … A_i` refreshes an iterative mining result as
//! the structure data evolves. Job `A_i` starts from job `A_{i-1}`'s
//! **converged state** `D_{i-1}` and **converged MRBGraph** (both much
//! closer to the new fixed point than a fresh initialization), then runs
//! incremental one-step iterations:
//!
//! * **Iteration 1** — the delta input is the *delta structure data*:
//!   deleted records cancel their MRBGraph edges via tombstones, inserted
//!   records add edges; only affected Reduce instances re-run.
//! * **Iteration j ≥ 2** — the delta input is the *delta state data*
//!   `ΔD_{j-1}`: for each changed state key, the map instances of its
//!   dependent structure records re-run and upsert their edges.
//!
//! That delta input is the iteration's **workset**, and it drives the
//! scheduling end to end, in the workset/solution-set model of delta
//! iterations (Ewen et al.): Map tasks run only for partitions holding
//! workset entries, Sort tasks only for non-empty runs, MRBGraph point
//! merges only for touched shards ([`StoreManager::merge_apply_touched`],
//! index persistence deferred to the end-of-run settle), and Reduce tasks
//! only for partitions with merge outcomes. Untouched partitions never
//! enter the data plane; an empty workset **is** the fixed point.
//!
//! Two §5 mechanisms bound the work:
//!
//! * **Change propagation control** (§5.3, [`crate::cpc`]): recomputed state
//!   values whose accumulated change is below the filter threshold are not
//!   emitted; asymmetric convergence makes most keys settle in a few hops.
//! * **P∆ monitoring** (§5.2): when the delta state covers more than
//!   `pdelta_threshold` (default 50 %) of all state kv-pairs, maintaining
//!   the MRBGraph costs more than it saves; the engine turns it off and
//!   finishes with plain iterative processing from the current state, then
//!   preserves the final MRBGraph once so the next refresh starts from
//!   current edges.
//!
//! Every incremental reduce output is debug-checked against
//! [`IterativeSpec::admissible`], so a spec can declare the update order it
//! relies on (SSSP: distances never regress).

use crate::checkpoint::IterCheckpointer;
use crate::cpc::{ChangePropagation, Verdict};
use crate::delta::{Delta, DeltaRecord, Op};
use crate::iter_engine::{
    iteration_fence, PartitionedData, PartitionedIterEngine, RunReport, StructGroup,
};
use crate::iterative::{IterParams, IterationStats, IterativeSpec, PreserveMode};
use crate::run::settle_trailing;
use crate::trace::{add_stage, emit_checkpoint_restore, emit_checkpoint_save};
use crate::tuning::EngineTuner;
use i2mr_common::codec::{decode_exact, encode_to};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_common::telemetry::TraceRecorder;
use i2mr_common::tuner::TuningDecision;
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{groups, sort_runs_adaptive, transpose_pooled, RunPool, ShuffleBuffers};
use i2mr_mapred::types::{Emitter, Values};
use i2mr_store::merge::{DeltaChunk, DeltaEntry, MergeOutcome};
use i2mr_store::runtime::StoreManager;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of an incremental iterative run.
#[derive(Clone, Copy, Debug)]
pub struct IncrParams {
    /// CPC filter threshold (paper: `job.setFilterThresh`); `None` = CPC
    /// disabled ("w/o CPC"): every change above the numerical
    /// `convergence_epsilon` propagates.
    pub filter_threshold: Option<f64>,
    /// Numerical convergence floor. Floating-point fixed points are only
    /// ever approached, so even "exact" propagation needs an epsilon below
    /// which a change counts as converged rather than propagatable.
    pub convergence_epsilon: f64,
    /// Turn MRBGraph maintenance off when `|ΔD| / |D|` exceeds this
    /// (paper default 50 %).
    pub pdelta_threshold: f64,
    /// Iteration budget.
    pub max_iterations: u64,
    /// Whether MRBGraph maintenance starts enabled (the user may turn it
    /// off a priori for Kmeans-like computations, §5.2).
    pub mrbg_enabled: bool,
}

impl Default for IncrParams {
    fn default() -> Self {
        IncrParams {
            filter_threshold: None,
            convergence_epsilon: 1e-9,
            pdelta_threshold: 0.5,
            max_iterations: 50,
            mrbg_enabled: true,
        }
    }
}

impl IncrParams {
    /// The threshold CPC actually applies: the filter threshold when set,
    /// otherwise the numerical convergence floor.
    pub fn effective_threshold(&self) -> f64 {
        self.filter_threshold.unwrap_or(self.convergence_epsilon)
    }
}

/// What one incremental iteration decided about the run's control flow.
enum StepOutcome {
    /// Changes propagated and P∆ stayed small: keep iterating.
    Continue,
    /// No changes propagated: the refresh reached its fixed point.
    Converged,
    /// P∆ blew past the threshold: switch to the full-iteration fallback.
    PdeltaExceeded,
}

/// Report of an incremental iterative run.
#[derive(Debug, Default)]
pub struct IncrRunReport {
    /// Per-iteration progress (`changed_keys` = propagated kv-pairs, the
    /// Fig. 11a series; `max_diff` = the largest change any re-reduced key
    /// saw, emitted or not).
    pub iterations: Vec<IterationStats>,
    /// Per-iteration engine metrics. After a P∆ bailout one trailing slot
    /// holds the final MRBGraph preservation pass.
    pub per_iteration: Vec<JobMetrics>,
    /// Workset size entering each incremental iteration (the Fig. 11a
    /// series measured at the scheduler). Fallback iterations after an
    /// MRBG turn-off process the full state and add no entry.
    pub worksets: Vec<u64>,
    /// Iteration after which MRBGraph maintenance was switched off by the
    /// P∆ monitor, if it was.
    pub mrbg_turned_off_at: Option<u64>,
    /// Whether the run converged (workset drained / fallback converged).
    pub converged: bool,
    /// Per-fence tuner decisions (empty when tuning is off; see
    /// [`crate::tuning::EngineTuner`]).
    pub tuning: Vec<TuningDecision>,
}

impl IncrRunReport {
    /// Sum of all iterations' metrics.
    pub fn total_metrics(&self) -> JobMetrics {
        let mut total = JobMetrics::default();
        for m in &self.per_iteration {
            total.merge(m);
        }
        total
    }

    /// Total wall time across iterations.
    pub fn total_wall(&self) -> std::time::Duration {
        self.iterations.iter().map(|i| i.wall).sum()
    }
}

/// Shuffle buffers of one map task plus its map invocation count.
type MapOut<S> = (
    ShuffleBuffers<<S as IterativeSpec>::DK, Option<<S as IterativeSpec>::V2>>,
    u64,
);

/// The incremental iterative engine. See module docs.
pub struct IncrIterEngine<'s, S: IterativeSpec> {
    spec: &'s S,
    config: JobConfig,
    params: IncrParams,
    /// Parameters for the full-iteration fallback after MRBG turn-off.
    fallback: IterParams,
    /// Recycler for delta shuffle runs across incremental iterations.
    recycler: RunPool<S::DK, Option<S::V2>>,
    /// Optional online controller ticked at every iteration fence.
    tuner: Option<Arc<EngineTuner>>,
    /// Optional telemetry recorder (stage samples, checkpoint spans).
    recorder: Option<Arc<TraceRecorder>>,
}

impl<'s, S: IterativeSpec> IncrIterEngine<'s, S> {
    /// The constructor behind [`crate::run::RunSession::run_incremental`];
    /// `fallback` configures the plain iterative engine used after an
    /// MRBG turn-off.
    pub(crate) fn assemble(
        spec: &'s S,
        config: JobConfig,
        params: IncrParams,
        fallback: IterParams,
    ) -> Result<Self> {
        config.validate()?;
        if config.n_map != config.n_reduce {
            return Err(i2mr_common::error::Error::config(
                "incremental iterative engine requires n_map == n_reduce",
            ));
        }
        Ok(IncrIterEngine {
            spec,
            config,
            params,
            fallback,
            recycler: RunPool::new(),
            tuner: None,
            recorder: None,
        })
    }

    /// Attach (or detach) the session's online tuner.
    pub(crate) fn with_tuner(mut self, tuner: Option<Arc<EngineTuner>>) -> Self {
        self.tuner = tuner;
        self
    }

    /// Attach (or detach) the session's telemetry recorder.
    pub(crate) fn with_recorder(mut self, recorder: Option<Arc<TraceRecorder>>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Run an incremental refresh.
    ///
    /// * `data` — the previous job's converged structure + state (mutated
    ///   in place toward the new fixed point).
    /// * `stores` — the store runtime holding the preserved MRBGraph, one
    ///   shard per partition.
    /// * `delta` — the delta structure input.
    /// * `ckpt` — optional per-iteration checkpointing (paper §6.1).
    pub fn run(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        ckpt: Option<&IterCheckpointer>,
    ) -> Result<IncrRunReport> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        let mut report = IncrRunReport::default();

        if !self.params.mrbg_enabled {
            // User declared MRBG maintenance wasteful (Kmeans-like): apply
            // the delta and re-iterate from the converged state, leaving
            // the MRBGraph unmaintained.
            apply_structure_delta(spec, n, data, delta);
            return self.finish_by_iteration(
                pool,
                data,
                stores,
                PreserveMode::None,
                0,
                ckpt,
                report,
            );
        }

        // The workset flowing between iterations (ΔD_j).
        let mut workset: Vec<(S::DK, S::DV)> = Vec::new();

        // Mid-run resume bookkeeping (paper §6.1 / Fig. 13).
        // `apply_structure_delta` is not idempotent, so a rewind restores a
        // pristine copy of the entry data and replays the delta when the
        // resume point is past iteration 1.
        let pristine = ckpt.map(|_| data.clone());
        if let Some(ck) = ckpt {
            // Iteration-0 baseline: a fault during iteration 1 rewinds
            // here. Written before any mutation, so a baseline failure
            // leaves the caller's data untouched and the run retryable.
            let t = Instant::now();
            ck.save_iteration(0, &data.state, Some(stores))?;
            ck.save_aux(0, &encode_to(&workset))?;
            emit_checkpoint_save(self.recorder.as_ref(), 0, t);
        }
        let mut recoveries_left = crate::checkpoint::MAX_RECOVERIES;
        let mut pending_recovery_ms = 0u64;

        let mut iteration = 1u64;
        while iteration <= self.params.max_iterations {
            let step = self.step(
                pool,
                data,
                stores,
                delta,
                &mut workset,
                iteration,
                ckpt,
                &mut report,
                &mut pending_recovery_ms,
            );
            match step {
                Ok(StepOutcome::Continue) => iteration += 1,
                Ok(StepOutcome::Converged) => {
                    report.converged = true;
                    return self.settle(stores, report);
                }
                Ok(StepOutcome::PdeltaExceeded) => {
                    // Preserve the final MRBGraph: the next refresh must not
                    // reduce against the edges from before the bailout.
                    return self.finish_by_iteration(
                        pool,
                        data,
                        stores,
                        PreserveMode::FinalOnly,
                        iteration,
                        ckpt,
                        report,
                    );
                }
                Err(e) => {
                    // A worker-loss / store / checkpoint fault escaped the
                    // pool's own retries. Rewind to the last complete
                    // checkpoint and resume from there.
                    let resume = match (ckpt, pristine.as_ref()) {
                        (Some(ck), Some(pristine)) if recoveries_left > 0 => ck
                            .latest_resumable(true)
                            .map(|latest| (ck, pristine, latest)),
                        _ => None,
                    };
                    let Some((ck, pristine, latest)) = resume else {
                        return Err(e);
                    };
                    recoveries_left -= 1;
                    let t = Instant::now();
                    *data = pristine.clone();
                    if latest >= 1 {
                        apply_structure_delta(spec, n, data, delta);
                    }
                    data.state = ck.load_state(latest)?;
                    for p in 0..stores.n_shards() {
                        let payload = ck.load_store_payload(latest, p)?;
                        stores.rebuild_shard(p, &payload)?;
                    }
                    workset = decode_exact(&ck.load_aux(latest)?)?;
                    let d = t.elapsed();
                    emit_checkpoint_restore(self.recorder.as_ref(), latest, d);
                    report.iterations.truncate(latest as usize);
                    report.per_iteration.truncate(latest as usize);
                    report.worksets.truncate(latest as usize);
                    pending_recovery_ms += (d.as_millis() as u64).max(1);
                    iteration = latest + 1;
                }
            }
        }
        self.settle(stores, report)
    }

    /// End of run: fence compactions, flush deferred shard indexes, fold
    /// the trailing store counters into the last iteration's metrics, and
    /// collect the tuner's decisions.
    fn settle(&self, stores: &StoreManager, mut report: IncrRunReport) -> Result<IncrRunReport> {
        settle_trailing(stores, &mut report.per_iteration)?;
        if let Some(t) = &self.tuner {
            report.tuning.extend(t.drain_decisions());
        }
        Ok(report)
    }

    /// MRBG maintenance is off (a priori, or switched off by the P∆
    /// monitor after `after_iteration`): finish the refresh with plain
    /// iterative processing from the current state, preserving the MRBGraph
    /// per `preserve`, then checkpoint the final state so recovery sees the
    /// completed refresh (paper §6.1).
    #[allow(clippy::too_many_arguments)]
    fn finish_by_iteration(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        preserve: PreserveMode,
        after_iteration: u64,
        ckpt: Option<&IterCheckpointer>,
        mut report: IncrRunReport,
    ) -> Result<IncrRunReport> {
        report.mrbg_turned_off_at = Some(after_iteration);
        let remaining = self
            .params
            .max_iterations
            .saturating_sub(after_iteration)
            .max(1);
        let fb = PartitionedIterEngine::assemble(
            self.spec,
            self.config.clone(),
            IterParams {
                max_iterations: remaining,
                epsilon: self.fallback.epsilon,
                preserve,
            },
        )?
        .with_tuner(self.tuner.clone())
        .with_recorder(self.recorder.clone())
        .run(pool, data, Some(stores))?;
        merge_fallback(&mut report, fb);
        // Settle first so the final checkpoint export does not queue
        // behind still-running compactions.
        let report = self.settle(stores, report)?;
        if let Some(ck) = ckpt {
            let t = Instant::now();
            let it = report.iterations.len() as u64;
            ck.save_iteration(it, &data.state, Some(stores))?;
            emit_checkpoint_save(self.recorder.as_ref(), it, t);
        }
        Ok(report)
    }

    /// One workset iteration: map the workset, shuffle, point-merge the
    /// delta MRBGraph into touched shards, reduce affected instances,
    /// apply updates, checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        workset: &mut Vec<(S::DK, S::DV)>,
        iteration: u64,
        ckpt: Option<&IterCheckpointer>,
        report: &mut IncrRunReport,
        pending_recovery_ms: &mut u64,
    ) -> Result<StepOutcome> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        let started = Instant::now();
        let workset_len = if iteration == 1 {
            delta.records().len() as u64
        } else {
            workset.len() as u64
        };
        let mut metrics = JobMetrics {
            jobs_started: u64::from(iteration == 1),
            workset_keys: workset_len,
            workset_iterations: 1,
            ..Default::default()
        };

        // ---------------- workset Map ----------------
        let t = Instant::now();
        let (map_outputs, new_dks, map_invocations) = if iteration == 1 {
            self.map_structure_delta(pool, data, delta)?
        } else {
            self.map_state_delta(pool, data, std::mem::take(workset), iteration)?
        };
        metrics.map_invocations = map_invocations;
        add_stage(
            self.recorder.as_ref(),
            &mut metrics,
            Stage::Map,
            iteration,
            t.elapsed(),
        );

        // ---------------- shuffle + sort ----------------
        let t = Instant::now();
        let (mut runs, recs, bytes) = transpose_pooled(map_outputs, n, true, &self.recycler);
        metrics.shuffled_records = recs;
        metrics.shuffled_bytes = bytes;
        add_stage(
            self.recorder.as_ref(),
            &mut metrics,
            Stage::Shuffle,
            iteration,
            t.elapsed(),
        );

        let t = Instant::now();
        let inline_below = self.tuner.as_ref().map_or(0, |t| t.sort_inline_threshold());
        sort_runs_adaptive(pool, &mut runs, iteration, inline_below)?;
        add_stage(
            self.recorder.as_ref(),
            &mut metrics,
            Stage::Sort,
            iteration,
            t.elapsed(),
        );

        // ---------------- MRBGraph point merge ----------------
        // Only shards whose run (or new-key set) is non-empty get a
        // StoreMerge task; index persistence is deferred shard-locally
        // and flushed once at end-of-run settle.
        let t = Instant::now();
        let touched: Vec<usize> = (0..n)
            .filter(|&p| !runs[p].is_empty() || !new_dks[p].is_empty())
            .collect();
        let runs_ref = &runs;
        let new_dks_ref = &new_dks;
        let outcomes_per_p = stores.merge_apply_touched(iteration, &touched, |p| {
            let run: &[(S::DK, MapKey, Option<S::V2>)] = &runs_ref[p];
            // The changed-key map is the borrowed `pending` list (newly
            // inserted state keys not yet seen in the run), checked off in
            // place.
            let mut deltas: Vec<DeltaChunk> = Vec::new();
            let mut pending: Vec<&Vec<u8>> = new_dks_ref[p].iter().collect();
            for group in groups(run) {
                let key = encode_to(&group[0].0);
                if let Ok(i) = pending.binary_search_by(|k| k.as_slice().cmp(&key)) {
                    pending.remove(i);
                }
                let entries = group
                    .iter()
                    .map(|(_, mk, v)| match v {
                        Some(v2) => DeltaEntry::Insert(*mk, encode_to(v2)),
                        None => DeltaEntry::Delete(*mk),
                    })
                    .collect();
                deltas.push(DeltaChunk { key, entries });
            }
            // Newly inserted state keys must be reduced even if no edges
            // arrived (a vertex with no in-edges still settles to its
            // no-input value).
            for key in pending {
                deltas.push(DeltaChunk {
                    key: key.clone(),
                    entries: Vec::new(),
                });
            }
            Ok(deltas)
        })?;

        // ---------------- workset Reduce ----------------
        // Reduce tasks only for partitions with merge outcomes; each
        // task's CPC verdicts decide the next workset.
        let state_parts = &data.state;
        let effective_threshold = self.params.effective_threshold();
        let reduce_parts: Vec<usize> = (0..n).filter(|&p| !outcomes_per_p[p].is_empty()).collect();
        let reduce_tasks: Vec<TaskSpec<'_, (Vec<(S::DK, S::DV)>, u64, u64, f64)>> = reduce_parts
            .iter()
            .map(|&p| {
                let outcomes: &[(Vec<u8>, MergeOutcome)] = &outcomes_per_p[p];
                let state = &state_parts[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let mut cpc = ChangePropagation::with_threshold(effective_threshold);
                        let mut emitted: Vec<(S::DK, S::DV)> = Vec::new();
                        let mut invocations = 0u64;
                        let mut max_diff = 0.0f64;
                        // The merged chunk owns freshly decoded values, so
                        // this path borrows them as a plain slice; `values`
                        // is reused across groups.
                        let mut values: Vec<S::V2> = Vec::new();
                        for (key_bytes, outcome) in outcomes {
                            let dk: S::DK = decode_exact(key_bytes)?;
                            // Deleted vertices / dangling targets have no
                            // state entry: their chunk was maintained but no
                            // state update applies.
                            let Ok(idx) = state.binary_search_by(|(k, _)| k.cmp(&dk)) else {
                                continue;
                            };
                            let prev = &state[idx].1;
                            values.clear();
                            if let MergeOutcome::Updated(chunk) = outcome {
                                values.reserve(chunk.entries.len());
                                for e in &chunk.entries {
                                    values.push(decode_exact(&e.value)?);
                                }
                            }
                            let candidate = spec.reduce(&dk, prev, Values::slice(&values));
                            invocations += 1;
                            debug_assert!(
                                spec.admissible(&candidate, prev),
                                "inadmissible incremental update"
                            );
                            let acc_diff = spec.difference(&candidate, prev);
                            max_diff = max_diff.max(acc_diff);
                            if cpc.judge(acc_diff) == Verdict::Emit {
                                emitted.push((dk, candidate));
                            }
                        }
                        Ok((emitted, invocations, cpc.filtered(), max_diff))
                    },
                )
            })
            .collect();
        let reduce_results = pool.run_tasks(reduce_tasks)?;
        add_stage(
            self.recorder.as_ref(),
            &mut metrics,
            Stage::Reduce,
            iteration,
            t.elapsed(),
        );
        self.recycler.recycle_all(runs);

        // Apply emitted updates in ascending partition order (reduce task
        // p's output is partition p's state — co-location) and gather the
        // next workset.
        let mut emitted_total = 0u64;
        let mut max_diff = 0.0f64;
        let mut next_workset: Vec<(S::DK, S::DV)> = Vec::new();
        for (&p, (emitted, invocations, filtered, part_max)) in
            reduce_parts.iter().zip(reduce_results)
        {
            metrics.reduce_invocations += invocations;
            metrics.workset_skipped += filtered;
            max_diff = max_diff.max(part_max);
            emitted_total += emitted.len() as u64;
            let part = &mut data.state[p];
            for (dk, dv) in &emitted {
                if let Ok(idx) = part.binary_search_by(|(k, _)| k.cmp(dk)) {
                    part[idx].1 = dv.clone();
                }
            }
            next_workset.extend(emitted);
        }
        // Fence and checkpoint *before* scheduling background compactions:
        // both take shard write locks and would otherwise stall behind the
        // compactions they are meant to overlap with.
        iteration_fence(
            pool,
            Some(stores),
            self.tuner.as_deref(),
            iteration,
            n,
            pending_recovery_ms,
            &mut metrics,
        );

        report.iterations.push(IterationStats {
            iteration,
            max_diff,
            changed_keys: emitted_total,
            wall: started.elapsed(),
        });
        report.worksets.push(workset_len);
        report.per_iteration.push(metrics);

        *workset = next_workset;
        if let Some(ck) = ckpt {
            let t = Instant::now();
            ck.save_iteration(iteration, &data.state, Some(stores))?;
            // Aux last: its presence seals the iteration as resumable.
            ck.save_aux(iteration, &encode_to(workset))?;
            emit_checkpoint_save(self.recorder.as_ref(), iteration, t);
        }

        // End of iteration: schedule policy-driven compaction of
        // garbage-heavy shards as detached background work — it overlaps
        // the next iteration's map phase and is fenced before the next
        // merge.
        stores.schedule_compactions(iteration)?;

        if emitted_total == 0 {
            return Ok(StepOutcome::Converged);
        }

        // ---------------- P∆ monitor (§5.2) ----------------
        let p_delta = emitted_total as f64 / data.state_len().max(1) as f64;
        if p_delta > self.params.pdelta_threshold {
            return Ok(StepOutcome::PdeltaExceeded);
        }
        Ok(StepOutcome::Continue)
    }

    /// Iteration 1 map phase: run Map over the delta structure records
    /// against the pre-delta state, then apply the delta to the partitioned
    /// data. Returns shuffle buffers, per-partition newly created state
    /// keys, and the number of map invocations.
    #[allow(clippy::type_complexity)]
    fn map_structure_delta(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
    ) -> Result<(
        Vec<ShuffleBuffers<S::DK, Option<S::V2>>>,
        Vec<BTreeSet<Vec<u8>>>,
        u64,
    )> {
        let n = self.config.n_reduce;
        let spec = self.spec;

        // Partition delta records by hash(project(SK)).
        let mut per_part: Vec<Vec<(S::DK, &DeltaRecord<S::SK, S::SV>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for rec in delta.records() {
            let dk = spec.project(&rec.key);
            let p = HashPartitioner.partition(&dk, n);
            per_part[p].push((dk, rec));
        }

        let state_parts = &data.state;
        let recycler = &self.recycler;
        let map_tasks: Vec<TaskSpec<'_, MapOut<S>>> = per_part
            .iter()
            .enumerate()
            .filter(|(_, records)| !records.is_empty())
            .map(|(p, records)| {
                let records: &[(S::DK, &DeltaRecord<S::SK, S::SV>)] = records;
                let state = &state_parts[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Map,
                        index: p,
                        iteration: 1,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n, recycler);
                        let mut emitter = Emitter::new();
                        let mut invocations = 0u64;
                        for (dk, rec) in records {
                            let dv = state
                                .binary_search_by(|(k, _)| k.cmp(dk))
                                .ok()
                                .map(|i| state[i].1.clone())
                                .unwrap_or_else(|| spec.init(dk));
                            let mk = MapKey::for_structure(&encode_to(&rec.key));
                            spec.map(&rec.key, &rec.value, dk, &dv, &mut emitter);
                            invocations += 1;
                            for (k2, v2) in emitter.drain() {
                                let payload = match rec.op {
                                    Op::Insert => Some(v2),
                                    Op::Delete => None,
                                };
                                buffers.push(k2, mk, payload, &HashPartitioner);
                            }
                        }
                        Ok((buffers, invocations))
                    },
                )
            })
            .collect();
        let (outputs, invocations) = run_map_tasks::<S>(pool, map_tasks)?;
        let new_dks = apply_structure_delta(spec, n, data, delta);
        Ok((outputs, new_dks, invocations))
    }

    /// Iteration j ≥ 2 map phase: re-run the map instances of the structure
    /// records that depend on workset keys; all outputs are edge upserts.
    #[allow(clippy::type_complexity)]
    fn map_state_delta(
        &self,
        pool: &WorkerPool,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        workset: Vec<(S::DK, S::DV)>,
        iteration: u64,
    ) -> Result<(
        Vec<ShuffleBuffers<S::DK, Option<S::V2>>>,
        Vec<BTreeSet<Vec<u8>>>,
        u64,
    )> {
        let n = self.config.n_reduce;
        let spec = self.spec;

        let mut per_part: Vec<Vec<(S::DK, S::DV)>> = (0..n).map(|_| Vec::new()).collect();
        for (dk, dv) in workset {
            let p = HashPartitioner.partition(&dk, n);
            per_part[p].push((dk, dv));
        }

        let structure = &data.structure;
        let recycler = &self.recycler;
        let map_tasks: Vec<TaskSpec<'_, MapOut<S>>> = per_part
            .iter()
            .enumerate()
            .filter(|(_, changes)| !changes.is_empty())
            .map(|(p, changes)| {
                let changes: &[(S::DK, S::DV)] = changes;
                let groups = &structure[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Map,
                        index: p,
                        iteration,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n, recycler);
                        let mut emitter = Emitter::new();
                        let mut invocations = 0u64;
                        for (dk, dv) in changes {
                            let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(dk)) else {
                                continue; // workset key with no dependents
                            };
                            for (sk, sv) in &groups[gi].records {
                                let mk = MapKey::for_structure(&encode_to(sk));
                                spec.map(sk, sv, dk, dv, &mut emitter);
                                invocations += 1;
                                for (k2, v2) in emitter.drain() {
                                    buffers.push(k2, mk, Some(v2), &HashPartitioner);
                                }
                            }
                        }
                        Ok((buffers, invocations))
                    },
                )
            })
            .collect();
        let (outputs, invocations) = run_map_tasks::<S>(pool, map_tasks)?;
        Ok((
            outputs,
            (0..n).map(|_| BTreeSet::new()).collect(),
            invocations,
        ))
    }
}

/// Run a workset map phase's tasks; returns their shuffle buffers and the
/// summed map invocations.
#[allow(clippy::type_complexity)]
fn run_map_tasks<S: IterativeSpec>(
    pool: &WorkerPool,
    tasks: Vec<TaskSpec<'_, MapOut<S>>>,
) -> Result<(Vec<ShuffleBuffers<S::DK, Option<S::V2>>>, u64)> {
    let mut outputs = Vec::with_capacity(tasks.len());
    let mut invocations = 0u64;
    for (buffers, inv) in pool.run_tasks(tasks)? {
        invocations += inv;
        outputs.push(buffers);
    }
    Ok((outputs, invocations))
}

/// Merge a fallback run's report into the incremental report, renumbering
/// iterations to continue the sequence.
fn merge_fallback(report: &mut IncrRunReport, fb: RunReport) {
    let offset = report.iterations.len() as u64;
    report
        .iterations
        .extend(fb.iterations.into_iter().map(|mut stats| {
            stats.iteration += offset;
            stats
        }));
    report.per_iteration.extend(fb.per_iteration);
    report.tuning.extend(fb.tuning);
    report.converged = fb.converged;
}

/// Apply a structure delta to partitioned data, maintaining the invariants
/// (grouping, sorting, state/structure key alignment). Returns the encoded
/// DKs of newly created state keys, per partition.
pub fn apply_structure_delta<S: IterativeSpec>(
    spec: &S,
    n: usize,
    data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
    delta: &Delta<S::SK, S::SV>,
) -> Vec<BTreeSet<Vec<u8>>> {
    let mut new_dks: Vec<BTreeSet<Vec<u8>>> = (0..n).map(|_| BTreeSet::new()).collect();
    for rec in delta.records() {
        let dk = spec.project(&rec.key);
        let p = HashPartitioner.partition(&dk, n);
        let groups = &mut data.structure[p];
        let state = &mut data.state[p];
        match rec.op {
            Op::Insert => match groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                Ok(gi) => {
                    let records = &mut groups[gi].records;
                    let pos = records
                        .binary_search_by(|(sk, _)| sk.cmp(&rec.key))
                        .unwrap_or_else(|e| e);
                    records.insert(pos, (rec.key.clone(), rec.value.clone()));
                }
                Err(gi) => {
                    groups.insert(
                        gi,
                        StructGroup {
                            dk: dk.clone(),
                            records: vec![(rec.key.clone(), rec.value.clone())],
                        },
                    );
                    let si = state
                        .binary_search_by(|(k, _)| k.cmp(&dk))
                        .unwrap_or_else(|e| e);
                    state.insert(si, (dk.clone(), spec.init(&dk)));
                    new_dks[p].insert(encode_to(&dk));
                }
            },
            Op::Delete => {
                if let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                    let records = &mut groups[gi].records;
                    if let Some(pos) = records
                        .iter()
                        .position(|(sk, sv)| *sk == rec.key && format_eq(sv, &rec.value))
                    {
                        records.remove(pos);
                    }
                    if records.is_empty() {
                        groups.remove(gi);
                        if let Ok(si) = state.binary_search_by(|(k, _)| k.cmp(&dk)) {
                            state.remove(si);
                        }
                        new_dks[p].remove(&encode_to(&dk));
                    }
                }
            }
        }
    }
    new_dks
}

/// Value equality via canonical encoding (SV: ValueData has no PartialEq
/// bound; the canonical byte encoding is the identity that matters).
fn format_eq<V: i2mr_common::codec::Codec>(a: &V, b: &V) -> bool {
    encode_to(a) == encode_to(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter_engine::build_partitioned;
    use crate::iterative::DependencyKind;
    use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
    use i2mr_common::hash::stable_hash64;
    use i2mr_mapred::pool::PoolConfig;
    use i2mr_store::store::MrbgStore;

    /// PageRank-like spec used across incremental tests.
    struct MiniRank;

    impl IterativeSpec for MiniRank {
        type SK = u64;
        type SV = Vec<u64>;
        type DK = u64;
        type DV = f64;
        type V2 = f64;

        fn project(&self, sk: &u64) -> u64 {
            *sk
        }
        fn map(&self, _sk: &u64, sv: &Vec<u64>, _dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
            if sv.is_empty() {
                return;
            }
            let share = dv / sv.len() as f64;
            for j in sv {
                out.emit(*j, share);
            }
        }
        fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
            0.15 + 0.85 * values.iter().sum::<f64>()
        }
        fn init(&self, _dk: &u64) -> f64 {
            1.0
        }
        fn difference(&self, curr: &f64, prev: &f64) -> f64 {
            (curr - prev).abs()
        }
        fn dependency(&self) -> DependencyKind {
            DependencyKind::OneToOne
        }
    }

    const N: usize = 3;

    fn stores(pool: &WorkerPool, tag: &str) -> StoreManager {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-incr-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreManager::create(pool, &dir, N, Default::default()).unwrap()
    }

    fn converge_initial(
        graph: Vec<(u64, Vec<u64>)>,
        stores: &StoreManager,
        pool: &WorkerPool,
    ) -> PartitionedData<u64, Vec<u64>, u64, f64> {
        let engine = PartitionedIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IterParams {
                max_iterations: 200,
                epsilon: 1e-12,
                preserve: PreserveMode::FinalOnly,
            },
        )
        .unwrap();
        let mut data = build_partitioned(&MiniRank, N, graph);
        let report = engine.run(pool, &mut data, Some(stores)).unwrap();
        assert!(report.converged);
        data
    }

    /// Oracle: converge from scratch on the updated graph.
    fn oracle(graph: Vec<(u64, Vec<u64>)>, pool: &WorkerPool) -> Vec<(u64, f64)> {
        let engine = PartitionedIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IterParams {
                max_iterations: 300,
                epsilon: 1e-12,
                preserve: PreserveMode::None,
            },
        )
        .unwrap();
        let mut data = build_partitioned(&MiniRank, N, graph);
        assert!(engine.run(pool, &mut data, None).unwrap().converged);
        data.state_snapshot()
    }

    fn assert_states_close(a: &[(u64, f64)], b: &[(u64, f64)], tol: f64) {
        assert_eq!(
            a.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            b.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "key sets differ"
        );
        for ((k, va), (_, vb)) in a.iter().zip(b) {
            assert!((va - vb).abs() < tol, "key {k}: {va} vs {vb}");
        }
    }

    fn ring_with_chords(n: u64) -> Vec<(u64, Vec<u64>)> {
        (0..n)
            .map(|i| {
                let mut out = vec![(i + 1) % n];
                if i % 3 == 0 {
                    out.push((i + 5) % n);
                }
                (i, out)
            })
            .collect()
    }

    #[test]
    fn incremental_matches_recompute_after_edge_insertions() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let st = stores(&pool, "ins");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Insert a chord on vertex 7: update its record.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new.clone());

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert!(
            report.mrbg_turned_off_at.is_none(),
            "1 change of 40: P∆ small"
        );

        let mut updated = graph;
        updated[7].1 = new;
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn incremental_matches_recompute_after_vertex_insert_and_delete() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let st = stores(&pool, "vtx");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        // New vertex 100 pointing at 3 (and nothing pointing at it).
        delta.insert(100, vec![3]);
        // Delete vertex 11 (its record; in-edges from 10 remain via ring —
        // contributions to a deleted vertex are dropped).
        delta.delete(11, graph[11].1.clone());

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);

        let mut updated = graph;
        updated.retain(|(k, _)| *k != 11);
        updated.push((100, vec![3]));
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);

        // Vertex 100 (no in-edges) must have settled at 0.15, not init 1.0.
        let v100 = data.state_get(N, &100).copied().unwrap();
        assert!((v100 - 0.15).abs() < 1e-9, "got {v100}");
    }

    #[test]
    fn cpc_threshold_reduces_propagation_but_bounds_error() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(60);
        let st_exact = stores(&pool, "cpc-exact");
        let mut data_exact = converge_initial(graph.clone(), &st_exact, &pool);
        let st_cpc = stores(&pool, "cpc-filt");
        let mut data_cpc = converge_initial(graph.clone(), &st_cpc, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[0].1.clone();
        delta.update(0, old.clone(), vec![30]);

        let exact_engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                filter_threshold: None,
                max_iterations: 200,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let exact_rep = exact_engine
            .run(&pool, &mut data_exact, &st_exact, &delta, None)
            .unwrap();

        let cpc_engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                filter_threshold: Some(0.001),
                max_iterations: 200,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let cpc_rep = cpc_engine
            .run(&pool, &mut data_cpc, &st_cpc, &delta, None)
            .unwrap();

        let exact_prop: u64 = exact_rep.iterations.iter().map(|i| i.changed_keys).sum();
        let cpc_prop: u64 = cpc_rep.iterations.iter().map(|i| i.changed_keys).sum();
        assert!(
            cpc_prop < exact_prop,
            "CPC must propagate fewer kv-pairs ({cpc_prop} vs {exact_prop})"
        );

        // Error vs the exact refresh stays small (threshold-bounded).
        let exact = data_exact.state_snapshot();
        let approx = data_cpc.state_snapshot();
        let mean_err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|((_, a), (_, b))| ((a - b) / a).abs())
            .sum::<f64>()
            / exact.len() as f64;
        assert!(mean_err < 0.01, "mean error {mean_err}");
    }

    #[test]
    fn pdelta_monitor_turns_off_mrbg_on_big_deltas() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "pdelta");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Rewire more than half of all vertices: P∆ blows past 50 %.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let mut updated = graph.clone();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            let new = vec![(i + 9) % 20];
            delta.update(i, old, new.clone());
            updated[i as usize].1 = new;
        }

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 300,
                ..Default::default()
            },
            IterParams {
                epsilon: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.mrbg_turned_off_at.is_some(), "P∆ must trigger");
        assert!(report.converged);

        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn mrbg_disabled_up_front_falls_back_to_iterative() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "nomrbg");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[4].1.clone();
        delta.update(4, old, vec![9]);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                mrbg_enabled: false,
                max_iterations: 300,
                ..Default::default()
            },
            IterParams {
                epsilon: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert_eq!(report.mrbg_turned_off_at, Some(0));
        assert!(report.converged);

        let mut updated = graph;
        updated[4].1 = vec![9];
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn mrbg_disabled_up_front_falls_back() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "nomrbg-ws");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[4].1.clone();
        delta.update(4, old, vec![9]);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                mrbg_enabled: false,
                max_iterations: 300,
                ..Default::default()
            },
            IterParams {
                epsilon: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert_eq!(report.mrbg_turned_off_at, Some(0));
        assert!(report.converged);
        assert!(report.worksets.is_empty(), "no workset iterations ran");
    }

    #[test]
    fn empty_delta_converges_immediately() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams::default(),
            IterParams::default(),
        )
        .unwrap();
        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].changed_keys, 0);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn resumes_mid_run_after_worker_faults_bit_identical() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();

        // Fault-free reference refresh.
        let st_ref = stores(&pool, "resume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        // Faulty refresh: converge on the clean pool, move the preserved
        // shards to a pool whose every task attempt dies while the fault
        // budget lasts (no executor retries — failures escape to the
        // engine's rewind path).
        let st_seed = stores(&pool, "resume-seed");
        let mut data = converge_initial(graph.clone(), &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(21, 3).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let faulty = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = std::env::temp_dir().join(format!(
            "i2mr-incr-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = payloads
            .iter()
            .enumerate()
            .map(|(p, payload)| {
                MrbgStore::import(dir.join(format!("shard-{p}")), payload, Default::default())
                    .unwrap()
            })
            .collect();
        let st = StoreManager::from_stores(&faulty, shards, Default::default()).unwrap();
        let dfs = i2mr_dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "resume", N);

        let report = engine
            .run(&faulty, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);
        assert!(fp.fired() >= 1, "faults must actually have been injected");
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0, "rewind cost must be accounted");
        assert!(
            total.rebuilt_shards >= N as u64,
            "every shard rebuilds on rewind (got {})",
            total.rebuilt_shards
        );

        // Bit-identical fixed point and byte-identical preserved MRBGraph.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn checkpoints_written_and_restorable() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(24);
        let st = stores(&pool, "ckpt");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let dfs_dir = std::env::temp_dir().join(format!(
            "i2mr-incr-ckpt-dfs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dfs_dir);
        let dfs = i2mr_dfs::MiniDfs::open_with(&dfs_dir, 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "minirank", N);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[2].1.clone();
        delta.update(2, old, vec![13]);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine
            .run(&pool, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);

        let latest = ck.latest_complete(true).expect("checkpoints exist");
        let restored: Vec<Vec<(u64, f64)>> = ck.load_state(latest).unwrap();
        assert_eq!(restored, data.state);
    }

    fn incr_params() -> IncrParams {
        IncrParams {
            max_iterations: 400,
            ..Default::default()
        }
    }

    fn engine(params: IncrParams) -> IncrIterEngine<'static, MiniRank> {
        IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            params,
            IterParams::default(),
        )
        .unwrap()
    }

    fn edge_insertion(graph: &[(u64, Vec<u64>)], v: usize, target: u64) -> Delta<u64, Vec<u64>> {
        let mut delta = Delta::new();
        let old = graph[v].1.clone();
        let mut new = old.clone();
        new.push(target);
        delta.update(v as u64, old, new);
        delta
    }

    /// Digests the refresh must reproduce: of the encoded state and, when
    /// no P∆ bailout rewrote the store, of each shard's export. Recorded
    /// before workset scheduling became the only incremental path.
    struct Recorded {
        state: u64,
        shards: Option<[u64; N]>,
    }

    /// Converge `graph`, refresh it with `delta`, and check the result
    /// against the recorded digests.
    fn refresh_reproduces(
        graph: Vec<(u64, Vec<u64>)>,
        delta: &Delta<u64, Vec<u64>>,
        params: IncrParams,
        tag: &str,
        want: Recorded,
    ) -> IncrRunReport {
        let pool = WorkerPool::new(N);
        let st = stores(&pool, tag);
        let mut data = converge_initial(graph, &st, &pool);
        let report = engine(params)
            .run(&pool, &mut data, &st, delta, None)
            .unwrap();
        assert!(report.converged, "{tag}: did not converge");
        assert_eq!(
            stable_hash64(&encode_to(&data.state)),
            want.state,
            "{tag}: state digest"
        );
        if let Some(shards) = want.shards {
            for (p, digest) in shards.into_iter().enumerate() {
                let export = st.export(p).unwrap();
                assert_eq!(stable_hash64(&export), digest, "{tag}: shard {p} digest");
            }
        }
        report
    }

    #[test]
    fn edge_update_reproduces_recorded_digests() {
        let graph = ring_with_chords(40);
        let delta = edge_insertion(&graph, 7, 20);
        let report = refresh_reproduces(
            graph,
            &delta,
            incr_params(),
            "d-edge",
            Recorded {
                state: 0x5d6bb2b45a7bdcf1,
                shards: Some([0x88ce679040784baa, 0x03e64a45f7c8a49d, 0xf3fdaab104bf0b24]),
            },
        );
        assert_eq!(report.iterations.len(), 95);
        assert!(report.mrbg_turned_off_at.is_none());
    }

    #[test]
    fn vertex_churn_reproduces_recorded_state_digest() {
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());
        // P∆ fires at iteration 12, so the store is rewritten by the final
        // preservation pass: only the state digest is comparable.
        let report = refresh_reproduces(
            graph,
            &delta,
            incr_params(),
            "d-vtx",
            Recorded {
                state: 0xf2fb8dc0677466e3,
                shards: None,
            },
        );
        assert_eq!(report.mrbg_turned_off_at, Some(12));
        assert_eq!(report.iterations.len(), 57);
    }

    #[test]
    fn cpc_threshold_reproduces_recorded_digests() {
        let graph = ring_with_chords(60);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.update(0, graph[0].1.clone(), vec![30]);
        let params = IncrParams {
            filter_threshold: Some(0.001),
            max_iterations: 200,
            ..Default::default()
        };
        let report = refresh_reproduces(
            graph,
            &delta,
            params,
            "d-cpc",
            Recorded {
                state: 0x1f351d4b29f52a16,
                shards: Some([0x7a8312bd847b2f80, 0xdee56aa410d36b7c, 0xe65890fc350a1dc7]),
            },
        );
        // CPC verdicts below threshold are the pruned workset entries.
        assert!(
            report.total_metrics().workset_skipped > 0,
            "threshold 0.001 must prune something"
        );
    }

    #[test]
    fn pdelta_fallback_reproduces_recorded_state_digest() {
        let graph = ring_with_chords(20);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            delta.update(i, old, vec![(i + 9) % 20]);
        }
        let params = IncrParams {
            max_iterations: 300,
            ..Default::default()
        };
        let report = refresh_reproduces(
            graph,
            &delta,
            params,
            "d-pdelta",
            Recorded {
                state: 0xb343741f287aecbd,
                shards: None,
            },
        );
        assert_eq!(report.mrbg_turned_off_at, Some(1));
        assert_eq!(report.worksets.len(), 1, "one workset iteration before P∆");
    }

    #[test]
    fn bailout_preserves_final_mrbgraph_for_next_refresh() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "bailout");
        let mut data = converge_initial(graph.clone(), &st, &pool);
        let params = IncrParams {
            max_iterations: 300,
            ..Default::default()
        };

        // Refresh 1 rewires 14 of 20 vertices: P∆ fires.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let mut updated = graph;
        for i in 0..14u64 {
            let new = vec![(i + 9) % 20];
            delta.update(i, updated[i as usize].1.clone(), new.clone());
            updated[i as usize].1 = new;
        }
        let first = engine(params)
            .run(&pool, &mut data, &st, &delta, None)
            .unwrap();
        assert!(first.mrbg_turned_off_at.is_some(), "P∆ must fire");

        // Refresh 2 adds one edge and stays incremental throughout: it
        // reduces against the MRBGraph refresh 1 left behind.
        let delta = edge_insertion(&updated, 15, 7);
        updated[15].1.push(7);
        let second = engine(params)
            .run(&pool, &mut data, &st, &delta, None)
            .unwrap();
        assert!(second.converged);
        assert!(second.mrbg_turned_off_at.is_none(), "no second bailout");
        assert_states_close(&data.state_snapshot(), &oracle(updated, &pool), 2e-5);
    }

    #[test]
    fn iterations_report_max_diff() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let st = stores(&pool, "maxdiff");
        let mut data = converge_initial(graph.clone(), &st, &pool);
        let params = incr_params();
        let delta = edge_insertion(&graph, 7, 20);
        let report = engine(params)
            .run(&pool, &mut data, &st, &delta, None)
            .unwrap();
        assert!(report.converged);
        let first = &report.iterations[0];
        let last = report.iterations.last().unwrap();
        assert!(first.max_diff > 0.0, "iteration 1 changed ranks");
        assert!(
            last.max_diff < params.effective_threshold(),
            "converged iteration max_diff {}",
            last.max_diff
        );
    }

    #[test]
    fn empty_workset_is_the_fixed_point() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "d-empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = engine(IncrParams::default())
            .run(&pool, &mut data, &st, &delta, None)
            .unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1, "one probing iteration");
        assert_eq!(report.worksets, vec![0]);
        let total = report.total_metrics();
        assert_eq!(total.workset_keys, 0);
        assert_eq!(total.workset_iterations, 1);
        assert_eq!(total.map_invocations + total.reduce_invocations, 0);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn workset_metrics_track_keys_processed() {
        let graph = ring_with_chords(90);
        let delta = edge_insertion(&graph, 7, 40);
        let report = refresh_reproduces(
            graph,
            &delta,
            incr_params(),
            "d-metrics",
            Recorded {
                state: 0x6394a7ba3f82fb99,
                shards: Some([0x0aab71beb00c8f74, 0x5c4d2256753f771d, 0x79076ba79b4cdb8b]),
            },
        );
        let total = report.total_metrics();
        assert_eq!(total.workset_iterations, report.iterations.len() as u64);
        assert_eq!(
            report.worksets.iter().sum::<u64>(),
            total.workset_keys,
            "workset series and counter must agree"
        );
        // Low churn: the workset — not the state width — drives reduce
        // work. Each workset key touches a handful of dependents (ring +
        // chord out-degree ≤ 2), so keys processed stays within a small
        // factor of the summed workset, far below full-width re-reduction.
        assert!(
            total.reduce_invocations <= 4 * total.workset_keys.max(1),
            "reduce invocations {} not workset-bound (workset {})",
            total.reduce_invocations,
            total.workset_keys
        );
        // Exact propagation keeps a decaying wavefront circulating, so
        // the per-iteration workset is the wavefront (~a third of this
        // small ring), not the state width.
        let full_width = 90 * report.iterations.len() as u64;
        assert!(
            total.reduce_invocations < full_width / 2,
            "reduce invocations {} ~ full width {}",
            total.reduce_invocations,
            full_width
        );
    }

    #[test]
    fn store_merge_faults_during_workset_merges_recover_via_reschedule() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let delta = edge_insertion(&graph, 7, 20);
        let engine = engine(incr_params());

        // Fault-free reference.
        let st_ref = stores(&pool, "mergefault-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        // Faulted run: the workset-scoped StoreMerge tasks die on their
        // first attempts; the executor reschedules them cross-worker. The
        // failpoint fires *before* the shard lock, so the deferred-index
        // merge path sees each delta exactly once and the end-of-run
        // settle persists a consistent index.
        let mut st = stores(&pool, "mergefault");
        let mut data = converge_initial(graph, &st, &pool);
        let fp = Arc::new(FailpointRegistry::seeded(9, 2).arm(
            FailSite::StoreAppend,
            1.0,
            FailAction::Error,
        ));
        st.set_failpoints(Arc::clone(&fp));
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert_eq!(fp.fired(), 2, "both budgeted merge faults must fire");
        assert_eq!(
            report.total_metrics().retries,
            2,
            "rescheduled merge attempts must be accounted"
        );

        // Bit-identical state, byte-identical shards after settle — the
        // rescheduled merges neither lost nor double-applied deltas.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn resumes_mid_run_after_vertex_churn_bit_identical() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());
        let engine = engine(incr_params());

        let st_ref = stores(&pool, "dresume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        let st_seed = stores(&pool, "dresume-seed");
        let mut data = converge_initial(graph, &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(33, 3).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let faulty = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = std::env::temp_dir().join(format!(
            "i2mr-delta-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = payloads
            .iter()
            .enumerate()
            .map(|(p, payload)| {
                MrbgStore::import(dir.join(format!("shard-{p}")), payload, Default::default())
                    .unwrap()
            })
            .collect();
        let st = StoreManager::from_stores(&faulty, shards, Default::default()).unwrap();
        let dfs = i2mr_dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "dresume", N);

        let report = engine
            .run(&faulty, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);
        assert!(fp.fired() >= 1);
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0);
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }
}
