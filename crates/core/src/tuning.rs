//! The engine-side half of the self-tuning runtime.
//!
//! `i2mr_common::tuner` holds the pure controller math; this module is the
//! glue that can see every actuator at once (core sits above `store` and
//! `mapred` in the crate graph): an [`EngineTuner`] owns one
//! [`KnobController`] per store shard plus the global grain and
//! sort-inlining controllers, and the three iterative engines call
//! [`EngineTuner::tick`] at their iteration fence — right after
//! `StoreManager::drain_metrics` (so the tick sees the iteration's full
//! signal set) and right before `StoreManager::schedule_compactions` (so a
//! policy move takes effect for the compactions scheduled *this* fence).
//!
//! The full signals → controllers → actuators map, the damping math, and
//! the worked example live in `TUNING.md`; the lifecycle diagram is
//! DESIGN.md §10.
//!
//! ## Determinism contract
//!
//! Every actuator the tuner touches is *scheduling-only*:
//!
//! * a per-shard [`CompactionPolicy`] override decides **when** a shard is
//!   reconstructed — reconstruction never changes live chunks;
//! * the pool grain decides **where** a small batch's tasks execute;
//! * the sort-inline threshold decides **where** a run is sorted — the
//!   comparator is the same either way.
//!
//! So a run with [`TuningMode::Active`] produces f64-bit-identical state
//! and byte-identical exports vs [`TuningMode::Off`]
//! (`tests/tuner_equivalence.rs` pins this).

use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::{EventKind, TraceRecorder};
use i2mr_common::tuner::{
    KnobController, LatencyHistogram, TuningConfig, TuningDecision, TuningMode,
};
use i2mr_mapred::WorkerPool;
use i2mr_store::compact::CompactionPolicy;
use i2mr_store::runtime::StoreManager;
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-run controller state behind the [`EngineTuner`]'s mutex.
struct TunerState {
    /// One compaction-eagerness controller per store shard (grown lazily
    /// to the plane's shard count on first tick).
    shards: Vec<KnobController>,
    /// Executor inline-grain controller.
    grain: KnobController,
    /// Shuffle sort-inlining controller.
    sort_inline: KnobController,
    /// Decision log, drained into the run report.
    decisions: Vec<TuningDecision>,
}

/// The online controller an engine run consults at every iteration fence.
///
/// Shared (`Arc`) between the [`crate::run::RunSession`] that built it and
/// the engine executing the current run, so decisions accumulate across
/// `run_initial` → `run_incremental` → `refresh_from` on one session and the
/// serving plane's latency histogram stays attached throughout.
pub struct EngineTuner {
    cfg: TuningConfig,
    /// The static policy tuning interpolates away from; eagerness `0.5`
    /// means exactly this policy (override cleared).
    base_policy: CompactionPolicy,
    /// Serving-plane point-lookup latencies; `RunSession::serve` routes
    /// every handle's samples here so the p99 guard sees the live lane.
    serve_latency: Arc<LatencyHistogram>,
    /// Session telemetry recorder: every decision pushed into the log is
    /// also emitted as an [`EventKind::Tuning`] event, verbatim.
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
    state: Mutex<TunerState>,
}

impl EngineTuner {
    /// Build a tuner for `cfg`, steering compaction relative to
    /// `base_policy` (the plane's static policy).
    pub fn new(cfg: TuningConfig, base_policy: CompactionPolicy) -> Self {
        EngineTuner {
            cfg,
            base_policy,
            serve_latency: Arc::new(LatencyHistogram::new()),
            recorder: Mutex::new(None),
            state: Mutex::new(TunerState {
                shards: Vec::new(),
                grain: KnobController::new(cfg.grain, 0.0),
                sort_inline: KnobController::new(cfg.sort_inline, 0.0),
                decisions: Vec::new(),
            }),
        }
    }

    /// The tuner's mode (mirrors [`TuningConfig::mode`]).
    pub fn mode(&self) -> TuningMode {
        self.cfg.mode
    }

    /// The configuration this tuner runs under.
    pub fn config(&self) -> &TuningConfig {
        &self.cfg
    }

    /// The shared latency histogram serving handles should record into.
    pub fn serve_latency(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.serve_latency)
    }

    /// Install (or detach, with `None`) the telemetry recorder every
    /// [`TuningDecision`] is mirrored into as an [`EventKind::Tuning`]
    /// event. The trace carries exactly what the drained decision log
    /// carries — same structs, same sites.
    pub fn set_recorder(&self, recorder: Option<Arc<TraceRecorder>>) {
        *self.recorder.lock() = recorder;
    }

    /// The sort-inlining threshold engines pass to
    /// `sort_runs_adaptive` — the live controller value in `Active` mode,
    /// `0` (historical behaviour) otherwise.
    pub fn sort_inline_threshold(&self) -> usize {
        if self.cfg.mode != TuningMode::Active {
            return 0;
        }
        self.state.lock().sort_inline.value().round().max(0.0) as usize
    }

    /// Interpolate the applied per-shard policy for eagerness `u ∈ [0,1]`.
    ///
    /// The scale is bidirectional around the static policy: `u = 0.5` is
    /// exactly the base policy, `u > 0.5` interpolates every field toward
    /// the configured eager floors (compact sooner), and `u < 0.5` toward
    /// the lazy ceilings (back off a cost-model guess that compacts too
    /// often for the observed garbage rate). Monotone in `u` on every
    /// field within each half.
    fn policy_at(&self, u: f64) -> CompactionPolicy {
        let u = u.clamp(0.0, 1.0);
        let (t, ratio_rail, batches_rail, bytes_rail) = if u >= 0.5 {
            (
                (u - 0.5) * 2.0,
                self.cfg.eager_floor_garbage_ratio,
                self.cfg.eager_floor_batches as f64,
                self.cfg.eager_floor_file_bytes as f64,
            )
        } else {
            (
                (0.5 - u) * 2.0,
                self.cfg.lazy_ceiling_garbage_ratio,
                self.cfg.lazy_ceiling_batches as f64,
                self.cfg.lazy_ceiling_file_bytes as f64,
            )
        };
        let lerp = |a: f64, b: f64| a + (b - a) * t;
        CompactionPolicy {
            min_garbage_ratio: lerp(self.base_policy.min_garbage_ratio, ratio_rail),
            min_batches: lerp(self.base_policy.min_batches as f64, batches_rail).round() as usize,
            min_file_bytes: lerp(self.base_policy.min_file_bytes as f64, bytes_rail).round() as u64,
        }
    }

    /// Fold one iteration's signals into the controllers and (in `Active`
    /// mode) push the resulting moves into the live actuators.
    ///
    /// Call at the iteration fence, after the iteration's metrics have
    /// been drained into `metrics` and *before*
    /// `StoreManager::schedule_compactions`, so policy moves shape this
    /// fence's compaction scheduling. `n_parts` is the job's reduce
    /// partition count (the denominator for per-partition signals).
    pub fn tick(
        &self,
        iteration: u64,
        stores: Option<&StoreManager>,
        pool: &WorkerPool,
        n_parts: usize,
        metrics: &mut JobMetrics,
    ) {
        if self.cfg.mode == TuningMode::Off {
            return;
        }
        let active = self.cfg.mode == TuningMode::Active;
        let iteration = iteration as usize;
        let rec = self.recorder.lock().clone();
        let mut st = self.state.lock();

        // Serving-lane guard: while the serve p99 is above the ceiling,
        // eagerness-raising compaction moves are vetoed (more compaction
        // is more background I/O under the serving lane's feet).
        let p99 = self.serve_latency.p99();
        let guard = self.cfg.serve_p99_ceiling_nanos > 0 && p99 > self.cfg.serve_p99_ceiling_nanos;

        if let Some(mgr) = stores {
            while st.shards.len() < mgr.n_shards() {
                // Start at the midpoint: `0.5` maps to exactly the base
                // (static) policy, leaving headroom in both directions.
                st.shards
                    .push(KnobController::new(self.cfg.compaction, 0.5));
            }
            for p in 0..mgr.n_shards() {
                let (file, live, _batches) = mgr.shard_vitals(p);
                let garbage = if file == 0 {
                    0.0
                } else {
                    file.saturating_sub(live) as f64 / file as f64
                };
                let u = st.shards[p].update(garbage);
                if u.clamped {
                    metrics.tuner_clamps += 1;
                }
                if !u.moved {
                    continue;
                }
                metrics.tuner_adjustments += 1;
                let vetoed = guard && u.after > u.before;
                let applied = active && !vetoed;
                if vetoed {
                    // Roll the controller back so its value always equals
                    // what the actuator is running with.
                    st.shards[p].set_value(u.before);
                }
                if applied {
                    let policy = if u.after == 0.5 {
                        None // back to exactly the static policy
                    } else {
                        Some(self.policy_at(u.after))
                    };
                    mgr.set_shard_policy(p, policy);
                }
                let d = TuningDecision {
                    knob: "compaction",
                    shard: Some(p),
                    iteration,
                    signal: garbage,
                    before: u.before,
                    after: if vetoed { u.before } else { u.after },
                    applied,
                    clamped: u.clamped,
                };
                if let Some(r) = &rec {
                    r.emit_driver(EventKind::Tuning {
                        decision: d.clone(),
                    });
                }
                st.decisions.push(d);
            }
        }

        // Per-partition record volume drives both global knobs: tiny
        // partitions mean dispatch overhead dominates → inline more.
        let per_part = if n_parts == 0 {
            0.0
        } else {
            metrics.shuffled_records as f64 / n_parts as f64
        };

        let u = st.grain.update(per_part);
        if u.clamped {
            metrics.tuner_clamps += 1;
        }
        if u.moved {
            metrics.tuner_adjustments += 1;
            if active {
                pool.set_grain(u.after.round().max(0.0) as usize);
            }
            let d = TuningDecision {
                knob: "grain",
                shard: None,
                iteration,
                signal: per_part,
                before: u.before,
                after: u.after,
                applied: active,
                clamped: u.clamped,
            };
            if let Some(r) = &rec {
                r.emit_driver(EventKind::Tuning {
                    decision: d.clone(),
                });
            }
            st.decisions.push(d);
        }

        let u = st.sort_inline.update(per_part);
        if u.clamped {
            metrics.tuner_clamps += 1;
        }
        if u.moved {
            metrics.tuner_adjustments += 1;
            // The actuator is the controller value itself, read by the
            // engines via `sort_inline_threshold` at the next sort.
            let d = TuningDecision {
                knob: "sort_inline",
                shard: None,
                iteration,
                signal: per_part,
                before: u.before,
                after: u.after,
                applied: active,
                clamped: u.clamped,
            };
            if let Some(r) = &rec {
                r.emit_driver(EventKind::Tuning {
                    decision: d.clone(),
                });
            }
            st.decisions.push(d);
        }
    }

    /// Take the accumulated decision log (engines attach it to their run
    /// reports; the log restarts empty).
    pub fn drain_decisions(&self) -> Vec<TuningDecision> {
        std::mem::take(&mut self.state.lock().decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_cfg() -> TuningConfig {
        TuningConfig::with_mode(TuningMode::Active)
    }

    #[test]
    fn policy_interpolates_bidirectionally_around_base() {
        let t = EngineTuner::new(active_cfg(), CompactionPolicy::default());
        let cfg = active_cfg();
        // Midpoint is exactly the static policy.
        assert_eq!(t.policy_at(0.5), CompactionPolicy::default());
        // Eager half: thresholds fall monotonically toward the floors.
        let p75 = t.policy_at(0.75);
        let p1 = t.policy_at(1.0);
        assert!(t.policy_at(0.5).min_garbage_ratio > p75.min_garbage_ratio);
        assert!(p75.min_garbage_ratio > p1.min_garbage_ratio);
        assert!(t.policy_at(0.5).min_file_bytes > p75.min_file_bytes);
        assert!(p75.min_file_bytes >= p1.min_file_bytes);
        assert!((p1.min_garbage_ratio - cfg.eager_floor_garbage_ratio).abs() < 1e-9);
        assert_eq!(p1.min_file_bytes, cfg.eager_floor_file_bytes);
        assert_eq!(p1.min_batches, cfg.eager_floor_batches);
        // Lazy half: thresholds rise monotonically toward the ceilings.
        let p25 = t.policy_at(0.25);
        let p0 = t.policy_at(0.0);
        assert!(p25.min_garbage_ratio > t.policy_at(0.5).min_garbage_ratio);
        assert!(p0.min_garbage_ratio > p25.min_garbage_ratio);
        assert!((p0.min_garbage_ratio - cfg.lazy_ceiling_garbage_ratio).abs() < 1e-9);
        assert_eq!(p0.min_file_bytes, cfg.lazy_ceiling_file_bytes);
        assert_eq!(p0.min_batches, cfg.lazy_ceiling_batches);
    }

    #[test]
    fn off_mode_never_moves_or_logs() {
        let t = EngineTuner::new(
            TuningConfig::with_mode(TuningMode::Off),
            CompactionPolicy::default(),
        );
        let pool = WorkerPool::new(1);
        let mut m = JobMetrics {
            shuffled_records: 1,
            ..Default::default()
        };
        t.tick(0, None, &pool, 4, &mut m);
        assert_eq!(m.tuner_adjustments, 0);
        assert_eq!(pool.grain(), 0);
        assert!(t.drain_decisions().is_empty());
        assert_eq!(t.sort_inline_threshold(), 0);
    }

    #[test]
    fn observe_logs_without_applying() {
        let t = EngineTuner::new(
            TuningConfig::with_mode(TuningMode::Observe),
            CompactionPolicy::default(),
        );
        let pool = WorkerPool::new(1);
        let mut m = JobMetrics {
            shuffled_records: 4, // 1 record/part, far below the grain target
            ..Default::default()
        };
        t.tick(0, None, &pool, 4, &mut m);
        assert!(m.tuner_adjustments >= 1);
        assert_eq!(pool.grain(), 0, "observe never touches the actuator");
        assert_eq!(t.sort_inline_threshold(), 0);
        let decisions = t.drain_decisions();
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|d| !d.applied));
        assert!(t.drain_decisions().is_empty(), "drain resets");
    }

    #[test]
    fn active_applies_grain_to_the_pool() {
        let t = EngineTuner::new(active_cfg(), CompactionPolicy::default());
        let pool = WorkerPool::new(1);
        let mut m = JobMetrics {
            shuffled_records: 4,
            ..Default::default()
        };
        t.tick(0, None, &pool, 4, &mut m);
        assert_eq!(pool.grain(), 1, "one fixed step up from 0");
        let decisions = t.drain_decisions();
        assert!(decisions.iter().any(|d| d.knob == "grain" && d.applied));
    }

    #[test]
    fn serve_guard_vetoes_eagerness_raises() {
        let mut cfg = active_cfg();
        cfg.serve_p99_ceiling_nanos = 1; // any recorded latency trips it
        let t = EngineTuner::new(cfg, CompactionPolicy::default());
        t.serve_latency().record(1_000_000); // p99 ≫ ceiling
        let pool = WorkerPool::new(1);
        let dir = std::env::temp_dir().join(format!(
            "i2mr-tuning-guard-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = StoreManager::create(&pool, &dir, 1, Default::default()).unwrap();
        // Seed enough garbage signal: append then overwrite via merge.
        use i2mr_common::hash::MapKey;
        use i2mr_store::format::{Chunk, ChunkEntry};
        use i2mr_store::merge::{DeltaChunk, DeltaEntry};
        let chunk = Chunk::new(
            b"k".to_vec(),
            vec![ChunkEntry {
                mk: MapKey(1),
                value: vec![0u8; 256],
            }],
        );
        mgr.append_batch_all(0, vec![vec![chunk]]).unwrap();
        mgr.merge_apply_all(1, |_| {
            Ok(vec![DeltaChunk {
                key: b"k".to_vec(),
                entries: vec![
                    DeltaEntry::Delete(MapKey(1)),
                    DeltaEntry::Insert(MapKey(1), vec![1u8; 8]),
                ],
            }])
        })
        .unwrap();
        let mut m = JobMetrics::default();
        t.tick(0, Some(&mgr), &pool, 1, &mut m);
        let decisions = t.drain_decisions();
        let comp: Vec<_> = decisions
            .iter()
            .filter(|d| d.knob == "compaction")
            .collect();
        assert!(!comp.is_empty(), "garbage signal should propose a raise");
        assert!(comp.iter().all(|d| !d.applied), "guard vetoes the raise");
        assert_eq!(
            mgr.shard_policy(0),
            mgr.config().policy,
            "actuator untouched"
        );
    }
}
