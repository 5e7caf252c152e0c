//! The lazy sparse dynamics of the two-state edge-MEG, over one slice of
//! the pair index.
//!
//! A [`Lane`] owns the pairs `[start, end)` and one RNG stream. It never
//! schedules an event: each round runs a Geometric(`q`) *death sweep*
//! over its alive list and a Geometric(`p`) *birth sweep* over its
//! untouched pairs, and a dying pair is retired back to untouched. So
//! per-round cost **and memory** are bounded by the lane's current
//! on-set, not by every pair that ever toggled, and setup skip-samples
//! the stationary on-set in `O(#on)`.
//!
//! Both lazy models are built from lanes:
//! [`crate::SparseTwoStateEdgeMeg::stationary_sparse_init`] is one lane
//! over the whole pair space, and [`crate::ShardedSparseEdgeMeg`] is
//! [`crate::LANES`] lanes over consecutive slices of it, which the engine
//! can step on several threads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::shard::ShardLane;
use dynagraph::EdgeDelta;

use crate::pairmap::PairMap;
use crate::pairs::edge_pair;

/// Alive-list position sentinel: a pair that is tracked but off.
pub(crate) const OFF: u32 = u32::MAX;

/// The alive-list position of an edge turning on while `len` edges are
/// on. Positions are `u32` with [`OFF`] reserved; the on-set would have
/// to reach 4 billion edges to overflow them.
pub(crate) fn next_position(len: usize) -> u32 {
    assert!(
        len < OFF as usize,
        "on-set exceeds u32 alive-list positions"
    );
    len as u32
}

/// The two-state chain of an event-driven model, with the checks its
/// simulation needs on top of [`TwoStateChain::new`]: both toggles
/// possible (a zero rate never fires its geometric wait) and `n >= 2`.
pub(crate) fn checked_chain(n: usize, p: f64, q: f64) -> Result<TwoStateChain, MarkovError> {
    let chain = TwoStateChain::new(p, q)?;
    if p == 0.0 || q == 0.0 {
        return Err(MarkovError::ParameterOutOfRange {
            name: "p/q (event-driven simulation needs both positive)",
            value: 0.0,
        });
    }
    if n < 2 {
        return Err(MarkovError::DimensionMismatch {
            expected: 2,
            found: n,
        });
    }
    Ok(chain)
}

/// A `Geometric(prob)` sampler on `{1, 2, ...}` — the waiting time until
/// the next success of a Bernoulli(`prob`) sequence — with `ln(1 - prob)`
/// hoisted out of the hot loop (same expression, same inputs, same bits).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometric {
    prob: f64,
    log1m: f64,
}

impl Geometric {
    pub(crate) fn new(prob: f64) -> Self {
        Geometric {
            prob,
            log1m: (1.0 - prob).ln(),
        }
    }

    #[inline]
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.prob >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let k = (u.ln() / self.log1m).ceil();
        (k as u64).max(1)
    }
}

/// One independently advanceable slice `[start, end)` of the pair index
/// space with its own RNG stream and lazy on-set tracking.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    /// Owned pair range `[start, end)`.
    pub(crate) start: u64,
    pub(crate) end: u64,
    /// Stationary on-probability `α`: the gaps of the initial on-set.
    init: Geometric,
    birth: Geometric,
    death: Geometric,
    /// Currently-on pair indices in this lane.
    alive: Vec<u64>,
    /// Pair index -> position in `alive` (only on pairs are tracked). A
    /// flat linear-probe [`PairMap`] rather than `std`'s `HashMap`: reset
    /// re-inserts the whole stationary on-set, and the map is never
    /// iterated, so hashing speed is all that matters.
    occ: PairMap,
    /// Deaths collected by this round's sweep, retired after births.
    retire_buf: Vec<u64>,
    rng: SmallRng,
}

impl Lane {
    /// An empty lane over `[start, end)`; [`Lane::reseed`] draws its
    /// initial on-set.
    pub(crate) fn new(chain: &TwoStateChain, start: u64, end: u64) -> Self {
        let alpha = chain.stationary_on();
        // Pre-size for the stationary working set: with retirement the
        // map holds exactly the on-set, whose expectation is α·pairs.
        let expected = (alpha * (end - start) as f64).ceil() as usize;
        Lane {
            start,
            end,
            init: Geometric::new(alpha),
            birth: Geometric::new(chain.birth()),
            death: Geometric::new(chain.death()),
            alive: Vec::new(),
            occ: PairMap::with_capacity(expected),
            retire_buf: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// Currently-on pair indices, in alive-list order.
    pub(crate) fn alive(&self) -> &[u64] {
        &self.alive
    }

    /// Number of tracked pairs: the on-set at round boundaries.
    pub(crate) fn tracked(&self) -> usize {
        self.occ.len()
    }

    /// Restarts the lane from its stationary distribution on a fresh
    /// stream. Successive on-pairs are Geometric(`α`) apart in the pair
    /// index, so only the ≈ α·pairs live edges are visited — one draw
    /// and one map insert each, `O(#on + #skips)` in all. Nothing is
    /// scheduled: deaths and births come from [`Lane::advance`]'s sweeps.
    pub(crate) fn reseed(&mut self, rng_seed: u64) {
        self.alive.clear();
        self.occ.clear();
        self.retire_buf.clear();
        self.rng = SmallRng::seed_from_u64(rng_seed);
        let mut idx = self.start + self.init.sample(&mut self.rng) - 1;
        while idx < self.end {
            self.turn_on(idx);
            idx += self.init.sample(&mut self.rng);
        }
    }

    fn turn_on(&mut self, edge: u64) {
        debug_assert!(!self.occ.contains(edge));
        self.occ.insert(edge, next_position(self.alive.len()));
        self.alive.push(edge);
    }

    /// Removes a dying pair from the alive list and the occupancy map —
    /// it returns to the untouched pool and its next birth comes from
    /// the sweep.
    fn retire(&mut self, edge: u64) {
        let pos = self.occ.get(edge).expect("edge is alive");
        let last = *self.alive.last().expect("edge is alive");
        self.alive.swap_remove(pos as usize);
        if last != edge {
            self.occ.insert(last, pos);
        }
        self.occ.remove(edge);
    }

    /// One round of the lazy dynamics over this lane's range, recording
    /// the churn into `delta` when one is supplied.
    pub(crate) fn advance(&mut self, mut delta: Option<&mut EdgeDelta>) {
        // 1. Death sweep: every on edge dies independently with
        //    probability q this round, so the dying subset of the
        //    start-of-round alive list is found by Geometric(q) skips
        //    over its positions — O(q·|E_t|) draws. The dying edges are
        //    only *collected* here; they stay tracked through the birth
        //    sweep so a pair cannot die and be re-born in the same round.
        debug_assert!(self.retire_buf.is_empty());
        let mut pos = self.death.sample(&mut self.rng) - 1;
        while (pos as usize) < self.alive.len() {
            self.retire_buf.push(self.alive[pos as usize]);
            pos += self.death.sample(&mut self.rng);
        }
        // 2. Birth sweep: every untouched pair is an independent
        //    Bernoulli(p) per round; the pairs firing this round are
        //    found by Geometric(p) skips over the pair index. Candidates
        //    landing on touched pairs are discarded, which leaves
        //    untouched pairs' birth times exactly Geometric(p). Newly
        //    born edges join `alive` *after* the death positions were
        //    sampled, so they live through this round — one transition
        //    per pair per round, like the dense model.
        let mut idx = self.start + self.birth.sample(&mut self.rng) - 1;
        while idx < self.end {
            if !self.occ.contains(idx) {
                self.turn_on(idx);
                if let Some(d) = delta.as_deref_mut() {
                    d.push_added(edge_pair(idx));
                }
            }
            idx += self.birth.sample(&mut self.rng);
        }
        // 3. Retire the dead to untouched: their next birth comes from
        //    the sweep — the same Geometric(p) waiting time an eager
        //    schedule would have drawn.
        for i in 0..self.retire_buf.len() {
            let edge = self.retire_buf[i];
            self.retire(edge);
            if let Some(d) = delta.as_deref_mut() {
                d.push_removed(edge_pair(edge));
            }
        }
        self.retire_buf.clear();
    }
}

impl ShardLane for Lane {
    /// One round into `delta`; with `emit_full` the churn is replaced by
    /// the lane's whole on-set (the delta contract's full emission).
    fn step_round(&mut self, delta: &mut EdgeDelta, emit_full: bool) {
        if emit_full {
            self.advance(None);
            for &e in &self.alive {
                delta.push_added(edge_pair(e));
            }
        } else {
            self.advance(Some(delta));
        }
    }
}
