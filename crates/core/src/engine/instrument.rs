//! Engine metric handles on the process-wide `dg-obs` registry.
//!
//! Everything here is read-only with respect to simulation state: the
//! handles tally wall-clock spans and event counts, never touching RNG
//! streams or trial data, so records are byte-identical whether recording
//! is on or off (pinned by the workspace `obs_identity` suite). All
//! handles are created lazily on first use; until [`dg_obs::enabled`]
//! returns true every recording call is a relaxed load + branch.

use dg_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::{Mutex, OnceLock};

/// Per-round engine phase timers and per-trial counters.
pub(crate) struct EngineObs {
    /// `dg_engine_round_phase_seconds{phase="model_step"}` — advancing the
    /// dynamic graph (snapshot rebuild or native delta emission).
    pub model_step: Histogram,
    /// `…{phase="delta_apply"}` — merging the round's delta into the
    /// incremental adjacency (delta path only).
    pub delta_apply: Histogram,
    /// `…{phase="protocol"}` — the protocol's transmission sweep.
    pub protocol: Histogram,
    /// `…{phase="observer"}` — streaming observer flush.
    pub observer: Histogram,
    /// `dg_engine_trials_total` — trials executed by any executor.
    pub trials: Counter,
    /// `dg_engine_models_built_total` — model factory invocations.
    pub models_built: Counter,
    /// `dg_engine_models_reused_total` — in-place `reset(seed)` reuses.
    pub models_reused: Counter,
    /// `dg_engine_scratch_grow_total` — trials whose [`super::TrialScratch`]
    /// had to grow its buffers (steady state should not count).
    pub scratch_grow: Counter,
}

/// Round-phase latency buckets: 100 ns … 1 s, decade steps.
fn phase_bounds() -> Vec<f64> {
    dg_obs::exponential_bounds(1e-7, 10.0, 8)
}

pub(crate) fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = Registry::global();
        let phase = |p: &str| {
            reg.histogram(
                &dg_obs::label("dg_engine_round_phase_seconds", "phase", p),
                &phase_bounds(),
            )
        };
        EngineObs {
            model_step: phase("model_step"),
            delta_apply: phase("delta_apply"),
            protocol: phase("protocol"),
            observer: phase("observer"),
            trials: reg.counter("dg_engine_trials_total"),
            models_built: reg.counter("dg_engine_models_built_total"),
            models_reused: reg.counter("dg_engine_models_reused_total"),
            scratch_grow: reg.counter("dg_engine_scratch_grow_total"),
        }
    })
}

/// Lane work accounting for trials that read `E_t` by stepping lanes.
pub(crate) struct ShardObs {
    /// `dg_shard_rounds_total` — lane-stepped rounds executed.
    pub rounds: Counter,
    /// `dg_shard_lane_imbalance_permille` — churn share of the busiest
    /// lane in the most recent round, in thousandths (1000/lanes ≈
    /// perfectly balanced, 1000 = one lane did everything).
    pub imbalance: Gauge,
    /// `dg_shard_lane_churn_total{lane="NN"}` — cumulative per-lane churn
    /// (edge events emitted), grown on demand to the widest lane set seen.
    lanes: Mutex<Vec<Counter>>,
}

pub(crate) fn shard_obs() -> &'static ShardObs {
    static OBS: OnceLock<ShardObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = Registry::global();
        ShardObs {
            rounds: reg.counter("dg_shard_rounds_total"),
            imbalance: reg.gauge("dg_shard_lane_imbalance_permille"),
            lanes: Mutex::new(Vec::new()),
        }
    })
}

impl ShardObs {
    /// Record one sharded round's per-lane churn (called from the
    /// single-threaded merge point, after the lanes have stepped).
    pub fn record_round(&self, lane_churn: impl Iterator<Item = u64>) {
        let reg = Registry::global();
        let mut lanes = self.lanes.lock().unwrap();
        let mut total = 0u64;
        let mut max = 0u64;
        for (i, churn) in lane_churn.enumerate() {
            if i >= lanes.len() {
                lanes.push(reg.counter(&dg_obs::label(
                    "dg_shard_lane_churn_total",
                    "lane",
                    &format!("{i:02}"),
                )));
            }
            lanes[i].add(churn);
            total += churn;
            max = max.max(churn);
        }
        self.rounds.inc();
        if let Some(permille) = (max * 1000).checked_div(total) {
            self.imbalance.set(permille as i64);
        }
    }
}
