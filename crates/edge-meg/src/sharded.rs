//! Lane-decomposed sparse two-state edge-MEG: the million-node model.
//!
//! [`ShardedSparseEdgeMeg`] runs the lazy sparse dynamics of
//! `crate::lane` — the dynamics
//! [`crate::SparseTwoStateEdgeMeg::stationary_sparse_init`] runs as one
//! lane over the whole pair space — as [`LANES`] *fixed logical lanes*:
//! lane `l` owns the contiguous pair range whose higher endpoint falls
//! in the `l`-th slice of the node space, and sweeps it with *its own*
//! RNG stream. Because every pair behaves independently in the
//! two-state process, the union over lanes is the same process
//! distribution as the single-lane model — and because the
//! decomposition is fixed (never a function of the thread count), a
//! realization depends only on `(n, p, q, seed)`.
//!
//! The payoff: the model exposes its lanes through
//! [`dynagraph::EvolvingGraph::sharding`], so the engine can step them
//! on all cores and apply their merged churn partitioned
//! ([`dynagraph::shard`]) — one `n = 10^6` trial saturates the machine
//! under any protocol, byte-identical to the serial path (the serial
//! `step_delta` sweeps the same lanes in lane order with the same
//! per-lane streams).

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::shard::{ShardAccess, ShardLane};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::lane::{checked_chain, Lane};
use crate::pairs::{edge_pair, pair_count};

/// Number of logical lanes — fixed, so realizations are independent of
/// how many threads step them. 64 comfortably exceeds any core count
/// the executor's round-robin assignment has to balance over, while
/// keeping per-lane state (a few Vecs + a PairMap) negligible.
pub const LANES: usize = 64;

/// Seed-domain tag separating lane streams from every other consumer of
/// the trial seed.
const LANE_SEED_TAG: u64 = 0x5AA2_DED0;

/// Sparse two-state edge-MEG decomposed into [`LANES`] fixed lanes —
/// the model behind million-node single-trial sharding.
///
/// Same process distribution as
/// [`crate::SparseTwoStateEdgeMeg::stationary_sparse_init`] (every pair
/// flips independently; only the random-stream bookkeeping differs),
/// with `O(#on)` setup and churn-proportional rounds. Exposes a lane
/// decomposition via [`EvolvingGraph::sharding`], so
/// `Simulation::builder().shards(..)` and
/// [`dynagraph::flooding::flood_sharded`] run a *single* trial on all
/// cores; serial and sharded execution are byte-identical.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::ShardedSparseEdgeMeg;
/// use dynagraph::{flooding, EvolvingGraph, Shards};
///
/// let n = 512;
/// let mut g = ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.3, 1).unwrap();
/// let serial = flooding::flood(&mut g, 0, 100_000);
/// g.reset(1);
/// let sharded = flooding::flood_sharded(&mut g, 0, 100_000, Shards::Fixed(4));
/// assert_eq!(serial, sharded);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSparseEdgeMeg {
    n: usize,
    chain: TwoStateChain,
    lanes: Vec<Lane>,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl ShardedSparseEdgeMeg {
    /// Creates a stationary lane-decomposed sparse edge-MEG (each pair
    /// on independently with probability `p/(p+q)` at round 0).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rates, `p = 0` or `q = 0`, or
    /// `n < 2` — the same conditions as
    /// [`crate::SparseTwoStateEdgeMeg::stationary`].
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        let chain = checked_chain(n, p, q)?;
        // Lane `l` owns the pairs whose higher endpoint lies in the
        // `l`-th slice of the node space.
        let node_span = n.div_ceil(LANES);
        let lanes = (0..LANES)
            .map(|l| {
                let lo = (l * node_span).min(n);
                let hi = ((l + 1) * node_span).min(n);
                Lane::new(&chain, pair_count(lo), pair_count(hi))
            })
            .collect();
        let mut meg = ShardedSparseEdgeMeg {
            n,
            chain,
            lanes,
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        Ok(meg)
    }

    /// The stationary edge density `α = p/(p+q)`.
    pub fn alpha(&self) -> f64 {
        self.chain.stationary_on()
    }

    /// Number of currently-on edges (summed over lanes).
    pub fn alive_count(&self) -> usize {
        self.lanes.iter().map(|l| l.alive().len()).sum()
    }
}

impl EvolvingGraph for ShardedSparseEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        for lane in &mut self.lanes {
            lane.advance(None);
        }
        self.edge_buf.clear();
        for lane in &self.lanes {
            self.edge_buf
                .extend(lane.alive().iter().map(|&e| edge_pair(e)));
        }
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // The serial reference sweep: lanes in lane order, appending
        // into one delta — exactly the concatenation the sharded
        // executor's merge produces, which is what makes serial and
        // sharded runs byte-identical.
        delta.begin_round();
        let full = !self.synced;
        for lane in &mut self.lanes {
            lane.step_round(delta, full);
        }
        self.synced = true;
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.synced = false;
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            lane.reseed(mix_seed(mix_seed(seed, LANE_SEED_TAG), l as u64));
        }
    }

    fn sharding(&mut self) -> Option<&mut dyn ShardAccess> {
        Some(self)
    }
}

impl ShardAccess for ShardedSparseEdgeMeg {
    fn lanes(&mut self) -> Vec<&mut dyn ShardLane> {
        // The executor steps lanes behind the model's back: break the
        // delta baseline so the next model-level `step_delta` emits the
        // full current edge set, per the delta contract.
        self.synced = false;
        self.lanes
            .iter_mut()
            .map(|l| l as &mut dyn ShardLane)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_stats::Summary;
    use dynagraph::flooding::{flood, flood_sharded};
    use dynagraph::Shards;

    #[test]
    fn lane_ranges_partition_the_pair_space() {
        for n in [2usize, 3, 17, 63, 64, 65, 200, 1000] {
            let g = ShardedSparseEdgeMeg::stationary(n, 0.1, 0.3, 0).unwrap();
            let mut next = 0u64;
            for lane in &g.lanes {
                assert_eq!(lane.start, next, "n = {n}");
                assert!(lane.end >= lane.start);
                next = lane.end;
            }
            assert_eq!(next, pair_count(n), "n = {n}");
        }
    }

    #[test]
    fn density_matches_stationary_alpha() {
        let n = 64;
        let (p, q) = (0.05, 0.2);
        let mut g = ShardedSparseEdgeMeg::stationary(n, p, q, 7).unwrap();
        let rounds = 600;
        let mut s = Summary::new();
        for _ in 0..rounds {
            s.push(g.step().edge_count() as f64);
        }
        let expected = p / (p + q) * pair_count(n) as f64;
        assert!(
            (s.mean() / expected - 1.0).abs() < 0.15,
            "mean {} vs {expected}",
            s.mean()
        );
    }

    #[test]
    fn deltas_replay_rebuild() {
        let mut rebuild = ShardedSparseEdgeMeg::stationary(96, 0.03, 0.2, 11).unwrap();
        let mut delta = ShardedSparseEdgeMeg::stationary(96, 0.03, 0.2, 11).unwrap();
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
        rebuild.reset(12);
        delta.reset(12);
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
    }

    #[test]
    fn reset_matches_fresh() {
        dynagraph::assert_reset_matches_fresh(
            |s| ShardedSparseEdgeMeg::stationary(80, 0.04, 0.25, s).unwrap(),
            99,
            5,
            25,
        );
    }

    #[test]
    fn sharded_flood_is_byte_identical_to_serial() {
        // The tentpole pin at model level: the same realization, flooded
        // serially and with every shard count, node for node and round
        // for round.
        let n = 384;
        let p = 1.5 / n as f64;
        for seed in [1u64, 9, 42] {
            let mut g = ShardedSparseEdgeMeg::stationary(n, p, 0.3, seed).unwrap();
            let serial = flood(&mut g, 0, 100_000);
            for shards in [2usize, 3, 4, 8] {
                g.reset(seed);
                let sharded = flood_sharded(&mut g, 0, 100_000, Shards::Fixed(shards));
                assert_eq!(serial, sharded, "seed {seed}, {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_flood_with_one_shard_falls_back_to_serial() {
        let n = 128;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 2.0 / n as f64, 0.3, 3).unwrap();
        let serial = flood(&mut g, 5, 100_000);
        g.reset(3);
        let one = flood_sharded(&mut g, 5, 100_000, Shards::Fixed(1));
        assert_eq!(serial, one);
    }

    #[test]
    fn holding_times_geometric() {
        // On-runs of a pair must still be Geometric(q) under the lane
        // decomposition (mean 2 rounds at q = 0.5).
        let n = 16;
        let mut g = ShardedSparseEdgeMeg::stationary(n, 0.5, 0.5, 3).unwrap();
        let (eu, ev) = edge_pair(0);
        let mut on_runs = Vec::new();
        let mut current = 0u32;
        for _ in 0..4000 {
            if g.step().has_edge(eu, ev) {
                current += 1;
            } else if current > 0 {
                on_runs.push(current as f64);
                current = 0;
            }
        }
        let s: Summary = on_runs.into_iter().collect();
        assert!(s.len() > 100);
        assert!((s.mean() - 2.0).abs() < 0.4, "mean on-run {}", s.mean());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ShardedSparseEdgeMeg::stationary(10, 0.0, 0.5, 0).is_err());
        assert!(ShardedSparseEdgeMeg::stationary(10, 0.5, 0.0, 0).is_err());
        assert!(ShardedSparseEdgeMeg::stationary(1, 0.2, 0.2, 0).is_err());
    }
}
