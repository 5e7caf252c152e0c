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
//! 2. **Partitioned apply** — the merged delta's half-edges are
//!    counting-sorted by 1024-node block of the shared [`DynAdjacency`],
//!    and each thread applies the halves of its own contiguous run of
//!    blocks, through the same body as the serial
//!    [`DynAdjacency::apply`]. An adjacency of at most 32 blocks
//!    (`n <= 32768`) is cache-resident and applied on one thread.
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
//! The partitioned apply runs the serial apply's own body on disjoint
//! runs of blocks, and [`DynAdjacency`] keeps every neighbour list
//! sorted, so it builds the same adjacency as a serial apply. With
//! the same protocol code on top, a trial run with
//! [`Shards::Fixed(8)`](Shards) reproduces the serial trial's records,
//! message tallies and per-round observer callbacks — down to the order
//! of newly informed nodes (pinned by the sharded-engine suite and the
//! engine golden records).

use crate::delta::{BlockPart, DynAdjacency, EdgeDelta};
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
/// contiguous run of the adjacency's 1024-node blocks and applying only
/// the bucketed half-edges that land there — through the same body as a
/// serial [`DynAdjacency::apply`], so the result is identical to it.
pub(crate) fn apply_partitioned(adj: &mut DynAdjacency, delta: &EdgeDelta, threads: usize) {
    adj.apply_with(delta, threads, |parts| run_parallel(parts, BlockPart::run));
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

    #[test]
    fn partitioned_apply_matches_serial_apply() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // 40 blocks (more than the 32 applied directly), the last one
        // partial; every delta's half-edges land in all of them, the
        // first delta is a full emission.
        let n = 40_500u32;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut present = std::collections::BTreeSet::new();
        let mut deltas = Vec::new();
        for round in 0..6 {
            let mut d = EdgeDelta::new();
            d.begin_round();
            if round > 0 {
                let removed: Vec<_> = present
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.3))
                    .collect();
                for e in removed {
                    present.remove(&e);
                    d.push_removed(e);
                }
            }
            let adds = if round == 0 { 60_000 } else { 12_000 };
            while d.added().len() < adds {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && present.insert((a.min(b), a.max(b))) {
                    d.push_added((a.min(b), a.max(b)));
                }
            }
            deltas.push(d);
        }
        for threads in [1, 2, 3, 8] {
            let mut serial = DynAdjacency::new(n as usize);
            let mut sharded = DynAdjacency::new(n as usize);
            for d in &deltas {
                serial.apply(d);
                apply_partitioned(&mut sharded, d, threads);
                assert_eq!(sharded.edge_count(), serial.edge_count());
                for u in 0..n {
                    assert_eq!(
                        sharded.neighbors(u),
                        serial.neighbors(u),
                        "node {u}, {threads} threads"
                    );
                }
                assert_eq!(sharded.snapshot(), serial.snapshot());
            }
        }
    }
}
