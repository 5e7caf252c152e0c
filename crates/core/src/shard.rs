//! Intra-trial sharding: reading one trial's `E_t` on all cores.
//!
//! The engine's trial-level parallelism saturates cores only when there
//! are many trials; a *single* `n = 10^6` trial still ran on one core.
//! Almost all of a serial round is reading `E_t` — model stepping plus
//! adjacency upkeep — and only about 3% is the protocol. So this module
//! parallelises the read, as the executor's third way to obtain `E_t`
//! (next to snapshots and serial deltas), for models that expose a lane
//! decomposition:
//!
//! 1. **Lane step** — the model's fixed logical lanes (see
//!    [`ShardLane`]) advance concurrently, each recording churn into its
//!    own [`EdgeDelta`]; the executor concatenates them in lane order.
//! 2. **Partitioned apply** — disjoint node-range views of the shared
//!    [`DynAdjacency`] ([`DynAdjacency::range_shards`]) apply the merged
//!    delta's incident halves concurrently.
//!
//! The protocol then runs once, serially, through the same
//! [`Protocol::transmit_delta`](crate::engine::Protocol::transmit_delta)
//! call as on the serial delta path, so every protocol — flooding, push
//! gossip, parsimonious flooding or a custom one — runs sharded.
//!
//! # Determinism
//!
//! The merged lane delta equals the model's serial
//! [`EvolvingGraph::step_delta`](crate::EvolvingGraph::step_delta),
//! which sweeps the same lanes in lane order with the same per-lane RNG
//! streams; the lane decomposition never depends on the thread count.
//! [`DynAdjacency`] keeps every neighbour list sorted, so the
//! partitioned apply builds the same adjacency as a serial apply. With
//! the same protocol code on top, a trial run with
//! [`Shards::Fixed(8)`](Shards) reproduces the serial trial's records,
//! message tallies and per-round observer callbacks — down to the order
//! of newly informed nodes (pinned by the sharded-engine suite and the
//! engine golden records).

use crate::delta::{DynAdjacency, EdgeDelta};
use crate::engine::instrument::shard_obs;

/// One logical lane of a shardable model: an independently advanceable
/// slice of the model's pair space with its own RNG stream.
///
/// Lane decompositions are *fixed* (independent of the physical thread
/// count), so realizations depend only on `(model parameters, seed)`;
/// [`Shards`] chooses how many threads step the lanes, nothing more.
pub trait ShardLane: Send {
    /// Advances this lane one round, recording its churn into `delta`
    /// (the caller has already called [`EdgeDelta::begin_round`]).
    ///
    /// With `emit_full`, the delta baseline is broken (first round after
    /// a reset/rebase): advance *without* recording churn, then record
    /// the lane's entire post-advance edge set as added — the lane-local
    /// piece of the delta contract's full emission.
    fn step_round(&mut self, delta: &mut EdgeDelta, emit_full: bool);
}

/// A model's lane decomposition, exposed to the engine via
/// [`crate::EvolvingGraph::sharding`].
pub trait ShardAccess {
    /// Mutable references to every lane, in lane order. Called once per
    /// trial; the executor steps these for the whole round loop.
    fn lanes(&mut self) -> Vec<&mut dyn ShardLane>;
}

/// The engine's intra-trial shard axis: how many threads read a single
/// trial's `E_t` — step the model's lanes and apply their churn.
///
/// Takes effect only when the model has native deltas and exposes a
/// lane decomposition ([`crate::EvolvingGraph::sharding`]), whatever
/// the protocol; otherwise the engine silently runs its serial paths.
/// `usize` converts via `From`, so `builder.shards(8)` and
/// `builder.shards(Shards::Auto)` both read naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shards {
    /// One thread per available core
    /// ([`std::thread::available_parallelism`]).
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl Default for Shards {
    /// `Fixed(1)`: single-threaded trials, the engine's historical
    /// behavior.
    fn default() -> Self {
        Shards::Fixed(1)
    }
}

impl Shards {
    /// The concrete thread count this setting resolves to here and now.
    pub fn resolve(self) -> usize {
        match self {
            Shards::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Shards::Fixed(k) => k.max(1),
        }
    }
}

impl From<usize> for Shards {
    fn from(k: usize) -> Self {
        Shards::Fixed(k)
    }
}

/// Steps every lane one round on up to `threads` threads, then merges
/// their churn into `delta` in lane order — the same delta the model's
/// serial `step_delta` records, since that sweeps the same lanes in the
/// same order with the same per-lane streams. `lane_deltas` holds one
/// reusable churn buffer per lane.
pub(crate) fn step_lanes(
    lanes: &mut [&mut dyn ShardLane],
    lane_deltas: &mut Vec<EdgeDelta>,
    delta: &mut EdgeDelta,
    emit_full: bool,
    threads: usize,
) {
    lane_deltas.resize_with(lanes.len(), EdgeDelta::default);
    // Round-robin across threads: lane pair-mass grows with the node id,
    // so striding balances better than contiguous chunks.
    let workers = threads.min(lanes.len());
    let mut work: Vec<Vec<(&mut dyn ShardLane, &mut EdgeDelta)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, (lane, lane_delta)) in lanes.iter_mut().zip(lane_deltas.iter_mut()).enumerate() {
        work[i % workers].push((&mut **lane, lane_delta));
    }
    run_parallel(work, |unit| {
        for (lane, lane_delta) in unit {
            lane_delta.begin_round();
            lane.step_round(lane_delta, emit_full);
        }
    });
    delta.begin_round();
    for lane_delta in lane_deltas.iter() {
        delta.merge_from(lane_delta);
    }
    if dg_obs::enabled() {
        shard_obs().record_round(lane_deltas.iter().map(|d| d.churn() as u64));
    }
}

/// Applies `delta` to `adj` on up to `threads` threads, each owning a
/// contiguous node range of its neighbour lists. Every list stays
/// sorted, so the result equals a serial [`DynAdjacency::apply`]. Spans
/// are 64-node aligned, so one round never spawns more than ⌈n/64⌉
/// threads.
pub(crate) fn apply_partitioned(adj: &mut DynAdjacency, delta: &EdgeDelta, threads: usize) {
    let span = adj.node_count().div_ceil(threads).next_multiple_of(64);
    // The bulk-load fast path on a full emission, like the serial apply.
    let bulk = adj.is_edgeless() && delta.removed().is_empty();
    run_parallel(adj.range_shards(span), |mut range| {
        if bulk {
            range.bulk_load_own_halves(delta.added());
        } else {
            range.apply_own_halves(delta);
        }
    });
    adj.commit_partitioned(delta);
}

/// Runs one closure invocation per unit, on one scoped thread each —
/// inline (no spawn) when there is a single unit.
fn run_parallel<T: Send>(mut units: Vec<T>, f: impl Fn(T) + Sync) {
    if units.len() <= 1 {
        if let Some(unit) = units.pop() {
            f(unit);
        }
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        for unit in units.drain(..) {
            scope.spawn(move || f(unit));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_resolve_and_convert() {
        assert_eq!(Shards::Fixed(4).resolve(), 4);
        assert_eq!(Shards::Fixed(0).resolve(), 1);
        assert!(Shards::Auto.resolve() >= 1);
        assert_eq!(Shards::from(8), Shards::Fixed(8));
        assert_eq!(Shards::default(), Shards::Fixed(1));
    }

    #[test]
    fn run_parallel_covers_every_unit() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        run_parallel((1u64..=100).collect(), |x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
        // Single unit: inline path.
        run_parallel(vec![7u64], |x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5057);
        run_parallel(Vec::<u64>::new(), |_| unreachable!());
    }
}
