//! Intra-trial sharding: one flooding trial across all cores.
//!
//! The engine's trial-level parallelism saturates cores only when there
//! are many trials; a *single* `n = 10^6` trial still ran on one core.
//! This module partitions the per-round hot path by node range and runs
//! it on `k` threads *inside* one trial:
//!
//! 1. **Lane step** — the model advances its fixed logical lanes (see
//!    [`ShardLane`]) concurrently, each recording churn into its own
//!    [`EdgeDelta`]; the coordinator concatenates them in lane order, so
//!    the merged delta is byte-identical to a serial sweep.
//! 2. **Partitioned apply** — disjoint node-range views of the shared
//!    [`DynAdjacency`] ([`DynAdjacency::range_shards`]) apply the merged
//!    delta's incident halves concurrently.
//! 3. **Frontier scan** — each node shard scans the flooding frontier
//!    and the round's added edges read-only, pre-filtering candidates
//!    against a `u64`-word informed bitset and routing them into
//!    per-destination-shard buckets; per-shard message partial sums
//!    replicate [`crate::engine::Flooding`]'s incremental
//!    informed-degree bookkeeping exactly.
//! 4. **Commit** — each shard informs its own nodes (dedup via its own
//!    64-bit-aligned bitset words; no atomics anywhere), and the
//!    coordinator splices the per-shard `new_nodes` in shard order.
//!
//! # Determinism
//!
//! The *realization* depends only on the model's fixed lane
//! decomposition and per-lane RNG streams — never on the thread count —
//! and every per-round quantity the engine records (informed counts,
//! rounds, messages, informed-at rounds) is a function of the informed
//! *set*, which each round's phases compute exactly. A trial run with
//! [`Shards::Fixed(8)`](Shards) is therefore byte-identical to the same
//! trial on the serial path, extending the repo's load-bearing
//! serial ≡ parallel pin down into a single trial (pinned by the
//! cross-crate suites and `benches/t18_shard`).

use crate::delta::{DynAdjacency, EdgeDelta};

/// Sentinel in the executor's informed-at array (same value as
/// [`crate::engine::SpreadView::UNINFORMED`]).
const UNINFORMED: u32 = u32::MAX;

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

/// A model's lane decomposition, exposed to the sharded executor via
/// [`crate::EvolvingGraph::sharding`].
pub trait ShardAccess {
    /// Mutable references to every lane, in lane order. Called once per
    /// trial; the executor steps these for the whole round loop.
    fn lanes(&mut self) -> Vec<&mut dyn ShardLane>;
}

/// The engine's intra-trial shard axis: how many threads execute a
/// single trial's round loop.
///
/// Takes effect only when the model exposes a lane decomposition
/// ([`crate::EvolvingGraph::sharding`]) and the protocol supports
/// sharded execution (flooding); otherwise the engine silently runs the
/// usual serial paths. `usize` converts via `From`, so
/// `builder.shards(8)` and `builder.shards(Shards::Auto)` both read
/// naturally.
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

/// Per-shard outputs of the read-only frontier/churn scan (phase 3).
#[derive(Debug, Default)]
struct Gather {
    /// In-range candidates from the round's added edges.
    own_cands: Vec<u32>,
    /// Frontier-scan candidates routed per destination shard.
    buckets: Vec<Vec<u32>>,
    /// Removed-edge halves whose endpoint was informed before this
    /// round (the negative churn term of the message count).
    removed_informed: u64,
    /// Added-edge halves whose endpoint was informed before this round.
    added_informed: u64,
    /// Post-apply degree sum of in-range frontier nodes.
    frontier_degree: u64,
}

impl Gather {
    fn begin_round(&mut self) {
        self.own_cands.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.removed_informed = 0;
        self.added_informed = 0;
        self.frontier_degree = 0;
    }
}

/// Reusable state of the sharded executor — lives in the engine's
/// per-worker [`crate::engine::TrialScratch`] so consecutive sharded
/// trials allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// One churn buffer per model lane (phase 1 outputs).
    lane_deltas: Vec<EdgeDelta>,
    /// The round's lane deltas concatenated in lane order.
    merged: EdgeDelta,
    /// The incrementally maintained edge set, applied partitioned.
    adj: DynAdjacency,
    /// Informed bitset, one bit per node; shard boundaries are 64-node
    /// aligned so each shard owns whole words.
    bits: Vec<u64>,
    /// Round each node was informed ([`UNINFORMED`] sentinel).
    informed_at: Vec<u32>,
    /// Informed nodes in the order they were committed.
    informed_list: Vec<u32>,
    /// Per-shard scan outputs.
    gather: Vec<Gather>,
    /// Per-shard commit outputs (nodes informed this round).
    new_nodes: Vec<Vec<u32>>,
}

impl ShardScratch {
    fn prepare(&mut self, n: usize, shards: usize, lanes: usize) {
        self.lane_deltas.resize_with(lanes, EdgeDelta::default);
        for d in &mut self.lane_deltas {
            d.clear();
        }
        self.merged.clear();
        self.adj.reset(n);
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
        self.informed_at.clear();
        self.informed_at.resize(n, UNINFORMED);
        self.informed_list.clear();
        self.gather.resize_with(shards, Gather::default);
        for g in &mut self.gather {
            g.buckets.resize_with(shards, Vec::new);
            g.buckets.truncate(shards);
        }
        self.new_nodes.resize_with(shards, Vec::new);
    }
}

/// What the executor reports after each committed round — enough for
/// the engine to drive observers.
pub(crate) struct RoundEvent<'a> {
    /// The (1-based) round that just completed.
    pub round: u32,
    /// Nodes informed this round, in shard-commit order.
    pub newly_informed: &'a [u32],
    /// `|I_t|` after this round.
    pub informed_count: usize,
    /// Messages transmitted this round.
    pub messages: u64,
    /// The round's merged churn (full emission on round 1).
    pub delta: &'a EdgeDelta,
    /// The post-apply edge set, for observers that need snapshots.
    pub adj: &'a mut DynAdjacency,
}

/// Terminal summary of one sharded flooding trial.
pub(crate) struct ShardOutcome {
    /// Round at which the last node was informed, if flooding completed.
    pub completed: Option<u32>,
    /// Rounds executed.
    pub rounds: u32,
    /// Total messages across all executed rounds.
    pub messages: u64,
    /// Nodes informed by the end of the run.
    pub informed: usize,
}

/// Runs one flooding trial over the model's lanes on `threads` threads.
///
/// Semantics (round structure, message counts, completion) replicate
/// the engine's delta path with the [`crate::engine::Flooding`]
/// protocol exactly; see the module docs for the phase breakdown and
/// the determinism argument.
pub(crate) fn flood_sharded_core(
    n: usize,
    access: &mut dyn ShardAccess,
    sources: &[u32],
    max_rounds: u32,
    threads: usize,
    scratch: &mut ShardScratch,
    mut on_round: impl FnMut(RoundEvent<'_>),
) -> ShardOutcome {
    let threads = threads.max(1);
    // 64-aligned shard width, so bitset words never straddle shards.
    let span = n.div_ceil(threads).next_multiple_of(64);
    let shards = n.div_ceil(span);
    let word_span = span / 64;

    let mut lanes = access.lanes();
    scratch.prepare(n, shards, lanes.len());

    // Sources arrive checked (in range, distinct) by the engine's
    // executor entry.
    for &s in sources {
        scratch.informed_at[s as usize] = 0;
        scratch.bits[s as usize / 64] |= 1 << (s % 64);
        scratch.informed_list.push(s);
    }

    let mut completed = (scratch.informed_list.len() == n).then_some(0u32);
    let mut t: u32 = 0;
    let mut frontier_start = 0usize;
    let mut informed_degree: u64 = 0;
    let mut messages_total: u64 = 0;

    while completed.is_none() && t < max_rounds {
        // Phase 1: step the lanes, round-robin across threads (lane
        // pair-mass grows with the node id, so striding balances better
        // than contiguous chunks).
        let emit_full = t == 0;
        {
            let workers = threads.min(lanes.len()).max(1);
            let mut work: Vec<Vec<(&mut dyn ShardLane, &mut EdgeDelta)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, (lane, delta)) in lanes
                .iter_mut()
                .zip(scratch.lane_deltas.iter_mut())
                .enumerate()
            {
                work[i % workers].push((&mut **lane, delta));
            }
            run_parallel(work, |unit| {
                for (lane, delta) in unit {
                    delta.begin_round();
                    lane.step_round(delta, emit_full);
                }
            });
        }

        // Merge in lane order: byte-identical to a serial lane sweep.
        scratch.merged.begin_round();
        for ld in &scratch.lane_deltas {
            scratch.merged.merge_from(ld);
        }
        if dg_obs::enabled() {
            crate::engine::instrument::shard_obs()
                .record_round(scratch.lane_deltas.iter().map(|d| d.churn() as u64));
        }

        // Phase 2: partitioned apply (bulk-load fast path on the full
        // emission, like the serial DynAdjacency::apply).
        let bulk = scratch.adj.is_edgeless() && scratch.merged.removed().is_empty();
        {
            let merged = &scratch.merged;
            let ranges = scratch.adj.range_shards(span);
            run_parallel(ranges, |mut r| {
                if bulk {
                    r.bulk_load_own_halves(merged.added());
                } else {
                    r.apply_own_halves(merged);
                }
            });
        }
        scratch.adj.commit_partitioned(&scratch.merged);

        // Phase 3: read-only frontier + churn scan per node shard.
        {
            let adj = &scratch.adj;
            let merged = &scratch.merged;
            let bits = &scratch.bits;
            let informed_at = &scratch.informed_at;
            let frontier = &scratch.informed_list[frontier_start..];
            let units: Vec<(usize, &mut Gather)> = scratch.gather.iter_mut().enumerate().collect();
            run_parallel(units, |(s, g)| {
                g.begin_round();
                let lo = (s * span) as u32;
                let hi = ((s + 1) * span).min(n) as u32;
                let owns = |x: u32| x >= lo && x < hi;
                // "Informed before this round" excludes the current
                // frontier — the exact predicate of the serial
                // Flooding::transmit_delta message bookkeeping.
                let informed_before = |x: u32| informed_at[x as usize] < t;
                let informed_now = |x: u32| bits[x as usize / 64] >> (x % 64) & 1 == 1;
                for &(u, v) in merged.removed() {
                    if owns(u) && informed_before(u) {
                        g.removed_informed += 1;
                    }
                    if owns(v) && informed_before(v) {
                        g.removed_informed += 1;
                    }
                }
                for &(u, v) in merged.added() {
                    if owns(u) {
                        if informed_before(u) {
                            g.added_informed += 1;
                        }
                        if !informed_now(u) && informed_now(v) {
                            g.own_cands.push(u);
                        }
                    }
                    if owns(v) {
                        if informed_before(v) {
                            g.added_informed += 1;
                        }
                        if !informed_now(v) && informed_now(u) {
                            g.own_cands.push(v);
                        }
                    }
                }
                for &f in frontier {
                    if !owns(f) {
                        continue;
                    }
                    g.frontier_degree += adj.degree(f) as u64;
                    for &w in adj.neighbors(f) {
                        if !informed_now(w) {
                            g.buckets[w as usize / span].push(w);
                        }
                    }
                }
            });
        }

        // Phase 4: commit — each shard informs its own nodes (its own
        // bitset words and informed-at slice; no write sharing), then
        // the coordinator splices new nodes in shard order.
        {
            // One shard's writable state: (shard index, bitset words,
            // informed-at slice, newly-informed list).
            type CommitUnit<'a> = (usize, &'a mut [u64], &'a mut [u32], &'a mut Vec<u32>);
            let gather = &scratch.gather;
            let units: Vec<CommitUnit<'_>> = scratch
                .bits
                .chunks_mut(word_span)
                .zip(scratch.informed_at.chunks_mut(span))
                .zip(scratch.new_nodes.iter_mut())
                .enumerate()
                .map(|(s, ((words, at), news))| (s, words, at, news))
                .collect();
            let round_informed = t + 1;
            run_parallel(units, |(s, words, at, news)| {
                news.clear();
                let base = (s * span) as u32;
                for &v in &gather[s].own_cands {
                    commit(v, base, round_informed, words, at, news);
                }
                for src in gather {
                    for &v in &src.buckets[s] {
                        commit(v, base, round_informed, words, at, news);
                    }
                }
            });
        }

        t += 1;
        let mut added = 0u64;
        let mut removed = 0u64;
        let mut frontier_deg = 0u64;
        for g in &scratch.gather {
            added += g.added_informed;
            removed += g.removed_informed;
            frontier_deg += g.frontier_degree;
        }
        informed_degree = informed_degree + added - removed + frontier_deg;
        messages_total += informed_degree;
        frontier_start = scratch.informed_list.len();
        for news in &scratch.new_nodes {
            scratch.informed_list.extend_from_slice(news);
        }
        if scratch.informed_list.len() == n {
            completed = Some(t);
        }
        on_round(RoundEvent {
            round: t,
            newly_informed: &scratch.informed_list[frontier_start..],
            informed_count: scratch.informed_list.len(),
            messages: informed_degree,
            delta: &scratch.merged,
            adj: &mut scratch.adj,
        });
    }

    ShardOutcome {
        completed,
        rounds: t,
        messages: messages_total,
        informed: scratch.informed_list.len(),
    }
}

/// Marks `v` informed in its shard's bitset words, recording its round
/// and membership — the dedup point where a node reachable through
/// several candidates is informed exactly once.
#[inline]
fn commit(v: u32, base: u32, round: u32, words: &mut [u64], at: &mut [u32], news: &mut Vec<u32>) {
    let local = (v - base) as usize;
    let w = local / 64;
    let m = 1u64 << (local % 64);
    if words[w] & m == 0 {
        words[w] |= m;
        at[local] = round;
        news.push(v);
    }
}

/// Runs one closure invocation per unit, on one scoped thread each —
/// inline (no spawn) when there is a single unit, which is also the
/// `shards = 1` serial reference path.
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
