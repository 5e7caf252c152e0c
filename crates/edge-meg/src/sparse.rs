//! Event-driven simulation of the two-state edge-MEG.
//!
//! Per-round flipping costs `O(n²)` per round regardless of density. The
//! sparse regimes of the paper (`p = Θ(1/n)`, where flooding is most
//! interesting) toggle only `Θ(n)` edges per round, so we simulate toggle
//! *events*: an off edge turns on after `Geometric(p)` rounds and an on
//! edge turns off after `Geometric(q)` rounds. The resulting process is
//! identical in distribution to [`crate::TwoStateEdgeMeg`].
//!
//! # Two dynamics: exact scan and lazy
//!
//! [`SparseTwoStateEdgeMeg::stationary`] initializes by scanning all
//! `n(n-1)/2` pairs — one Bernoulli(`α`) draw plus one scheduled toggle
//! per pair — which keeps its realizations byte-pinned across refactors
//! but makes *trial setup* the `O(n²)` bottleneck of short Monte-Carlo
//! runs at large `n`. Its toggles live in a *calendar queue* — one
//! bucket per upcoming round in a fixed ring, plus an overflow list for
//! far-future toggles — instead of a binary heap: with millions of
//! pending events (one per potential edge) heap sifts dominate the
//! per-round cost, while the calendar pops a round's toggles from one
//! contiguous bucket. Events are processed in ascending `(round, edge)`
//! order either way, so the RNG draw order (and thus every realization)
//! is identical to the heap implementation.
//!
//! The opt-in [`SparseTwoStateEdgeMeg::stationary_sparse_init`]
//! constructor runs the fully lazy dynamics instead: one lane
//! (`crate::lane`) over the whole pair space, the same dynamics
//! [`crate::ShardedSparseEdgeMeg`] runs per slice. Setup skip-samples
//! the stationary on-set (`O(#on + #skips)`, nothing scheduled); each
//! round runs a Geometric(`q`) *death sweep* over the alive list and a
//! Geometric(`p`) *birth sweep* over the untouched pair index, and a
//! dying pair is retired back to untouched — so both per-round cost
//! **and long-run memory** are bounded by the current working set, not
//! by every pair that ever toggled. The two constructors realize
//! different random streams but the same process distribution (pinned
//! by χ²/degree-moment and holding-time tests).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::lane::{checked_chain, next_position, Geometric, Lane, OFF};
use crate::pairs::{edge_pair, pair_count};

/// Ring width of the event calendar: toggles scheduled within this many
/// rounds go straight to their round's bucket; later ones wait in the
/// overflow list, which is swept back into the ring every
/// `HORIZON / 2` rounds.
const HORIZON: u64 = 8192;

/// A calendar queue keyed by round number.
///
/// Invariant: every entry of `buckets[r % HORIZON]` is due exactly at
/// round `r` — entries are only admitted when `when - now < HORIZON`, so
/// residues cannot collide among pending events (an event further than
/// one full ring away sits in `overflow` until a flush brings it within
/// the horizon).
#[derive(Debug, Clone)]
struct EventCalendar {
    /// `buckets[when % HORIZON]` holds the edges toggling at `when`.
    buckets: Vec<Vec<u64>>,
    /// Far-future events `(when, edge)` with `when - push_round >= HORIZON`.
    overflow: Vec<(u64, u64)>,
    /// Next round at which the overflow is swept into the ring.
    next_flush: u64,
    /// Recycled allocation for the per-round due list.
    scratch: Vec<u64>,
}

impl EventCalendar {
    fn new() -> Self {
        EventCalendar {
            buckets: vec![Vec::new(); HORIZON as usize],
            overflow: Vec::new(),
            next_flush: HORIZON / 2,
            scratch: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.next_flush = HORIZON / 2;
    }

    #[inline]
    fn push(&mut self, now: u64, when: u64, edge: u64) {
        debug_assert!(when > now);
        if when - now < HORIZON {
            self.buckets[(when % HORIZON) as usize].push(edge);
        } else {
            self.overflow.push((when, edge));
        }
    }

    /// Moves every overflow event that is now within the horizon into
    /// its bucket. Flushing at least once per `HORIZON / 2` rounds
    /// guarantees no event's due round slips past while it waits.
    fn flush(&mut self, now: u64) {
        self.next_flush = now + HORIZON / 2;
        let mut i = 0;
        while i < self.overflow.len() {
            let (when, edge) = self.overflow[i];
            if when - now < HORIZON {
                self.buckets[(when % HORIZON) as usize].push(edge);
                self.overflow.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Takes the edges due at `now`, sorted ascending — the same order a
    /// min-heap over `(when, edge)` would pop them in. Return the vector
    /// via [`EventCalendar::end_round`] to recycle its allocation.
    fn begin_round(&mut self, now: u64) -> Vec<u64> {
        if now >= self.next_flush {
            self.flush(now);
        }
        let slot = &mut self.buckets[(now % HORIZON) as usize];
        let mut due = std::mem::replace(slot, std::mem::take(&mut self.scratch));
        due.sort_unstable();
        due
    }

    fn end_round(&mut self, mut due: Vec<u64>) {
        due.clear();
        self.scratch = due;
    }
}

/// The exact-scan dynamics: every pair tracked, every toggle scheduled
/// in the calendar.
#[derive(Debug, Clone)]
struct ExactScan {
    round: u64,
    alpha: f64,
    birth: Geometric,
    death: Geometric,
    /// Indices of currently-on edges.
    alive: Vec<u64>,
    /// Per pair: its position in `alive`, or [`OFF`].
    slots: Vec<u32>,
    /// Pending toggle events, bucketed by due round.
    calendar: EventCalendar,
    rng: SmallRng,
}

impl ExactScan {
    fn new(chain: &TwoStateChain, pairs: u64) -> Self {
        ExactScan {
            round: 0,
            alpha: chain.stationary_on(),
            birth: Geometric::new(chain.birth()),
            death: Geometric::new(chain.death()),
            alive: Vec::new(),
            slots: vec![OFF; pairs as usize],
            calendar: EventCalendar::new(),
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// Scans every pair: Bernoulli(`α`) membership plus one scheduled
    /// toggle each. `O(n²)`, byte-pinned realizations.
    fn reseed(&mut self, rng_seed: u64) {
        self.rng = SmallRng::seed_from_u64(rng_seed);
        self.round = 0;
        self.alive.clear();
        self.slots.fill(OFF);
        self.calendar.clear();
        for e in 0..self.slots.len() as u64 {
            let on = self.rng.gen_bool(self.alpha);
            if on {
                self.turn_on(e);
            }
            self.schedule_toggle(e, on);
        }
    }

    fn schedule_toggle(&mut self, edge: u64, currently_on: bool) {
        let wait = if currently_on { self.death } else { self.birth };
        let dt = wait.sample(&mut self.rng);
        self.calendar.push(self.round, self.round + dt, edge);
    }

    fn turn_on(&mut self, edge: u64) {
        debug_assert_eq!(self.slots[edge as usize], OFF);
        self.slots[edge as usize] = next_position(self.alive.len());
        self.alive.push(edge);
    }

    fn turn_off(&mut self, edge: u64) {
        let pos = self.slots[edge as usize];
        debug_assert_ne!(pos, OFF, "edge is alive");
        let last = *self.alive.last().expect("edge is alive");
        self.alive.swap_remove(pos as usize);
        if last != edge {
            self.slots[last as usize] = pos;
        }
        self.slots[edge as usize] = OFF;
    }

    /// Toggles this round's due edges in ascending order, rescheduling
    /// each, and records the churn into `delta` when one is supplied.
    fn advance(&mut self, mut delta: Option<&mut EdgeDelta>) {
        self.round += 1;
        let due = self.calendar.begin_round(self.round);
        for &edge in &due {
            let on = self.slots[edge as usize] != OFF;
            if on {
                self.turn_off(edge);
            } else {
                self.turn_on(edge);
            }
            if let Some(d) = delta.as_deref_mut() {
                if on {
                    d.push_removed(edge_pair(edge));
                } else {
                    d.push_added(edge_pair(edge));
                }
            }
            self.schedule_toggle(edge, !on);
        }
        self.calendar.end_round(due);
    }
}

/// How the model realizes the process (see the module docs).
#[derive(Debug, Clone)]
enum Dynamics {
    ExactScan(ExactScan),
    Lazy(Lane),
}

impl Dynamics {
    /// Indices of the currently-on edges, in alive-list order.
    fn alive(&self) -> &[u64] {
        match self {
            Dynamics::ExactScan(x) => &x.alive,
            Dynamics::Lazy(lane) => lane.alive(),
        }
    }

    /// Advances the process one round, recording the churn into `delta`
    /// when one is supplied. Shared by both stepping paths, so the RNG
    /// stream is identical either way.
    fn advance(&mut self, delta: Option<&mut EdgeDelta>) {
        match self {
            Dynamics::ExactScan(x) => x.advance(delta),
            Dynamics::Lazy(lane) => lane.advance(delta),
        }
    }
}

/// Event-driven two-state edge-MEG, equivalent in distribution to
/// [`crate::TwoStateEdgeMeg::stationary`] but with per-round cost
/// `O(#toggles · log #events + |E_t|)`.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::SparseTwoStateEdgeMeg;
/// use dynagraph::{flooding, EvolvingGraph};
///
/// let n = 256;
/// let mut g = SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.2, 1).unwrap();
/// let run = flooding::flood(&mut g, 0, 100_000);
/// assert!(run.flooding_time().is_some());
/// ```
///
/// For large sparse instances, make trial *setup* churn-proportional too
/// with [`SparseTwoStateEdgeMeg::stationary_sparse_init`]:
///
/// ```
/// use dg_edge_meg::{pair_count, SparseTwoStateEdgeMeg};
/// use dynagraph::EvolvingGraph;
///
/// let n = 2048; // setup cost O(#on), not O(n²)
/// let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, 1.0 / n as f64, 0.1, 7).unwrap();
/// let alpha = g.alpha();
/// let expected = alpha * pair_count(n) as f64;
/// assert!((g.alive_count() as f64 - expected).abs() < 6.0 * (expected * (1.0 - alpha)).sqrt());
/// let _ = g.step();
/// ```
#[derive(Debug, Clone)]
pub struct SparseTwoStateEdgeMeg {
    n: usize,
    chain: TwoStateChain,
    dynamics: Dynamics,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl SparseTwoStateEdgeMeg {
    /// Creates a stationary sparse edge-MEG (each edge on independently
    /// with probability `p/(p+q)` at round 0).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rates, `p = 0` or `q = 0` (event
    /// scheduling needs both toggles possible), or `n < 2`.
    ///
    /// Pair indices are `u64`, so any `n` up to `2^32` nodes is
    /// addressable; the exact-scan setup, however, allocates one slot
    /// per pair (`O(n²)` memory and time), which is the practical limit
    /// of *this* constructor. Beyond ~10^5 nodes use
    /// [`SparseTwoStateEdgeMeg::stationary_sparse_init`], whose setup
    /// and memory stay proportional to the on-set.
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        let chain = checked_chain(n, p, q)?;
        let dynamics = Dynamics::ExactScan(ExactScan::new(&chain, pair_count(n)));
        Ok(Self::with_dynamics(n, chain, dynamics, seed))
    }

    /// Creates a stationary sparse edge-MEG whose trial *setup* is sparse
    /// too: the initial on-set is sampled directly with geometric skips
    /// over the pair index (`O(#on + #skips)` instead of the `O(n²)`
    /// pair scan of [`SparseTwoStateEdgeMeg::stationary`]), with no
    /// event scheduling at all — deaths and births both come from lazy
    /// per-round skip sweeps, and dead pairs are retired back to the
    /// untouched pool.
    ///
    /// Same process distribution as `stationary` (pinned by χ²,
    /// degree-moment and holding-time tests), but a *different
    /// realization* for the same seed: the two constructors consume
    /// randomness differently, and `stationary` keeps its byte-pinned
    /// streams. Memory is bounded by the *current* on-set (plus the
    /// pre-sized occupancy table), never by `n²`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SparseTwoStateEdgeMeg::stationary`].
    pub fn stationary_sparse_init(
        n: usize,
        p: f64,
        q: f64,
        seed: u64,
    ) -> Result<Self, MarkovError> {
        let chain = checked_chain(n, p, q)?;
        let dynamics = Dynamics::Lazy(Lane::new(&chain, 0, pair_count(n)));
        Ok(Self::with_dynamics(n, chain, dynamics, seed))
    }

    fn with_dynamics(n: usize, chain: TwoStateChain, dynamics: Dynamics, seed: u64) -> Self {
        let mut meg = SparseTwoStateEdgeMeg {
            n,
            chain,
            dynamics,
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        meg
    }

    /// The stationary edge density `α = p/(p+q)`.
    pub fn alpha(&self) -> f64 {
        self.chain.stationary_on()
    }

    /// Number of currently-on edges.
    pub fn alive_count(&self) -> usize {
        self.dynamics.alive().len()
    }

    /// Number of pairs the instance currently tracks — the memory
    /// working set. Exact-scan instances track every pair
    /// (`pair_count(n)`); sparse-init instances track exactly the
    /// current on-set at round boundaries (a pair's entry is retired the
    /// round its edge dies), so long-run memory is bounded by `|E_t|`,
    /// not by every pair that ever toggled.
    pub fn tracked_pairs(&self) -> usize {
        match &self.dynamics {
            Dynamics::ExactScan(x) => x.slots.len(),
            Dynamics::Lazy(lane) => lane.tracked(),
        }
    }
}

impl EvolvingGraph for SparseTwoStateEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        self.dynamics.advance(None);
        self.edge_buf.clear();
        let edges = self.dynamics.alive().iter().map(|&e| edge_pair(e));
        self.edge_buf.extend(edges);
        self.snapshot.rebuild_from_edges(&self.edge_buf);
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // The toggles of this round *are* the delta: per-round cost is
        // O(#toggles), with no |E_t| term at all — the payoff of
        // delta-native stepping in the paper's sparse, slow-churn
        // regimes. While unsynced the churn is replaced by the full set.
        delta.begin_round();
        if self.synced {
            self.dynamics.advance(Some(delta));
        } else {
            self.dynamics.advance(None);
            delta.record_full(self.dynamics.alive().iter().map(|&e| edge_pair(e)));
            self.synced = true;
        }
    }

    fn has_native_deltas(&self) -> bool {
        true
    }

    fn rebase_deltas(&mut self) {
        self.synced = false;
    }

    fn reset(&mut self, seed: u64) {
        self.synced = false;
        let rng_seed = mix_seed(seed, 0x5BA5);
        match &mut self.dynamics {
            Dynamics::ExactScan(x) => x.reseed(rng_seed),
            Dynamics::Lazy(lane) => lane.reseed(rng_seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedSparseEdgeMeg, TwoStateEdgeMeg};
    use dg_stats::Summary;
    use dynagraph::flooding::flood;

    #[test]
    fn density_matches_dense_implementation() {
        let n = 48;
        let (p, q) = (0.03, 0.12);
        let rounds = 400;
        let mut dense = TwoStateEdgeMeg::stationary(n, p, q, 7).unwrap();
        let mut sparse = SparseTwoStateEdgeMeg::stationary(n, p, q, 7).unwrap();
        let mut sd = Summary::new();
        let mut ss = Summary::new();
        for _ in 0..rounds {
            sd.push(dense.step().edge_count() as f64);
            ss.push(sparse.step().edge_count() as f64);
        }
        let expected = p / (p + q) * pair_count(n) as f64;
        assert!(
            (sd.mean() / expected - 1.0).abs() < 0.15,
            "dense {}",
            sd.mean()
        );
        assert!(
            (ss.mean() / expected - 1.0).abs() < 0.15,
            "sparse {}",
            ss.mean()
        );
        assert!(
            (sd.mean() - ss.mean()).abs() < 0.2 * expected,
            "dense {} vs sparse {}",
            sd.mean(),
            ss.mean()
        );
    }

    #[test]
    fn toggle_holding_times_geometric() {
        // With q = 0.5 an on-edge lives on average 2 rounds.
        let n = 16;
        let mut g = SparseTwoStateEdgeMeg::stationary(n, 0.5, 0.5, 3).unwrap();
        let edge = 0u64;
        let mut on_runs = Vec::new();
        let mut current = 0u32;
        for _ in 0..4000 {
            let snap = g.step();
            let (u, v) = edge_pair(edge);
            if snap.has_edge(u, v) {
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
    fn floods_like_dense() {
        let n = 96;
        let p = 2.0 / n as f64;
        let q = 0.3;
        let cfg_trials = 10;
        let mut dense_times = Vec::new();
        let mut sparse_times = Vec::new();
        for t in 0..cfg_trials {
            let mut d = TwoStateEdgeMeg::stationary(n, p, q, 100 + t).unwrap();
            let mut s = SparseTwoStateEdgeMeg::stationary(n, p, q, 200 + t).unwrap();
            dense_times.push(flood(&mut d, 0, 10_000).flooding_time().unwrap() as f64);
            sparse_times.push(flood(&mut s, 0, 10_000).flooding_time().unwrap() as f64);
        }
        let d: Summary = dense_times.into_iter().collect();
        let s: Summary = sparse_times.into_iter().collect();
        // Same distribution: means within a factor ~2 at these sizes.
        let ratio = d.mean() / s.mean();
        assert!(ratio > 0.4 && ratio < 2.5, "ratio = {ratio}");
    }

    #[test]
    fn alive_bookkeeping_consistent() {
        let mut g = SparseTwoStateEdgeMeg::stationary(20, 0.2, 0.4, 9).unwrap();
        for _ in 0..50 {
            let snap = g.step();
            assert_eq!(snap.edge_count(), g.alive_count());
        }
    }

    #[test]
    fn rejects_zero_rates() {
        assert!(SparseTwoStateEdgeMeg::stationary(10, 0.0, 0.5, 0).is_err());
        assert!(SparseTwoStateEdgeMeg::stationary(10, 0.5, 0.0, 0).is_err());
    }

    /// Steps a model over `n` nodes five rounds, checking that every
    /// snapshot holds valid pairs and `alive_count(g)` edges, and that
    /// the on-set reaches pair indices past `u32::MAX`.
    fn steps_past_u32<G: EvolvingGraph>(g: &mut G, alive_count: impl Fn(&G) -> usize) {
        let n = g.node_count();
        let mut past_u32 = false;
        for _ in 0..5 {
            let edges = {
                let snap = g.step();
                for (u, v) in snap.edges() {
                    assert!(u < v && (v as usize) < n);
                    past_u32 |= crate::edge_index(u, v) > u32::MAX as u64;
                }
                snap.edge_count()
            };
            assert_eq!(edges, alive_count(g));
        }
        assert!(past_u32, "on-set never exercised the widened index space");
    }

    #[test]
    fn sparse_init_handles_pair_indices_past_u32() {
        // 100 000 nodes was rejected while pair indices were u32; with
        // the u64 pair space the lazy models must accept it and run
        // correctly on indices beyond u32::MAX. Rates are tiny so the
        // on-set (and the test) stays small: ~14% of the pair space lies
        // above u32::MAX, and ~500 on-edges reach it with overwhelming
        // probability. The lane model's upper lanes start past u32::MAX.
        let n = 100_000;
        assert!(pair_count(n) > u32::MAX as u64);
        let (p, q) = (3e-8, 0.3);
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, 1).unwrap();
        steps_past_u32(&mut g, |g| {
            assert_eq!(g.tracked_pairs(), g.alive_count());
            g.alive_count()
        });
        let mut lanes = ShardedSparseEdgeMeg::stationary(n, p, q, 1).unwrap();
        steps_past_u32(&mut lanes, ShardedSparseEdgeMeg::alive_count);
    }

    /// FNV-style fold of the first `rounds` snapshots — a fingerprint of
    /// the exact realization (edge sets *and* their order).
    fn realization_fingerprint(n: usize, p: f64, q: f64, seed: u64, rounds: usize) -> u64 {
        let mut g = SparseTwoStateEdgeMeg::stationary(n, p, q, seed).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..rounds {
            let snap = g.step();
            for (u, v) in snap.edges() {
                h ^= ((u as u64) << 32) | v as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h ^= snap.edge_count() as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn realizations_pinned_across_refactors() {
        // These fingerprints were captured from the original
        // binary-heap event queue; the calendar queue (and any future
        // event-store change) must reproduce the exact same draws.
        assert_eq!(
            realization_fingerprint(32, 0.05, 0.1, 7, 200),
            0x4c0a_ad31_b1ee_a9bf
        );
        assert_eq!(
            realization_fingerprint(64, 1.0 / 64.0, 0.3, 42, 500),
            0x502f_3ce9_220a_e609
        );
        assert_eq!(
            realization_fingerprint(128, 1.0 / 128.0, 0.02, 3, 300),
            0x9d96_3269_b099_2de9
        );
    }

    #[test]
    fn calendar_handles_far_future_events() {
        // p and q tiny: almost every toggle is scheduled beyond the
        // calendar horizon and must flow through the overflow sweep.
        let n = 24;
        let mut g = SparseTwoStateEdgeMeg::stationary(n, 1e-4, 1e-4, 11).unwrap();
        let mut total = 0usize;
        for _ in 0..30_000 {
            total += g.step().edge_count();
        }
        // Stationary density 0.5: the time average must stay close, which
        // fails loudly if overflow events are ever lost or duplicated.
        let expected = 0.5 * pair_count(n) as f64;
        let mean = total as f64 / 30_000.0;
        assert!((mean / expected - 1.0).abs() < 0.2, "mean = {mean}");
        for _ in 0..30_000 {
            let snap = g.step();
            assert_eq!(snap.edge_count(), g.alive_count());
        }
    }

    #[test]
    fn reset_reproducible() {
        let mut g = SparseTwoStateEdgeMeg::stationary(24, 0.1, 0.2, 5).unwrap();
        g.reset(42);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(42);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_init_reset_reproducible() {
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(24, 0.1, 0.2, 5).unwrap();
        g.reset(42);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(42);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
        g.reset(43);
        let c: Vec<_> = g.step().edges().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_init_rejects_bad_parameters() {
        assert!(SparseTwoStateEdgeMeg::stationary_sparse_init(10, 0.0, 0.5, 0).is_err());
        assert!(SparseTwoStateEdgeMeg::stationary_sparse_init(10, 0.5, 0.0, 0).is_err());
        assert!(SparseTwoStateEdgeMeg::stationary_sparse_init(1, 0.2, 0.2, 0).is_err());
    }

    #[test]
    fn sparse_init_bookkeeping_consistent() {
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(20, 0.2, 0.4, 9).unwrap();
        for _ in 0..80 {
            let snap = g.step();
            assert_eq!(snap.edge_count(), g.alive_count());
        }
    }

    #[test]
    fn sparse_init_deltas_replay_rebuild() {
        let mut rebuild = SparseTwoStateEdgeMeg::stationary_sparse_init(28, 0.05, 0.2, 11).unwrap();
        let mut delta = SparseTwoStateEdgeMeg::stationary_sparse_init(28, 0.05, 0.2, 11).unwrap();
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
        rebuild.reset(12);
        delta.reset(12);
        dynagraph::delta::assert_replays_rebuild(&mut rebuild, &mut delta, 40);
    }

    #[test]
    fn sparse_init_memory_bounded_by_current_on_set() {
        // Retire-to-untouched: at every round boundary the touched-pair
        // map holds exactly the on-set, however many pairs have toggled
        // over the run. Moderate rates so most pairs toggle many times —
        // the regime where pre-retirement tracking grew monotonically.
        let n = 40;
        let (p, q) = (0.05, 0.5); // alpha ≈ 0.09: heavy per-pair churn
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, 17).unwrap();
        assert_eq!(g.tracked_pairs(), g.alive_count());
        let mut max_tracked = 0;
        for _ in 0..5_000 {
            let _ = g.step();
            assert_eq!(
                g.tracked_pairs(),
                g.alive_count(),
                "touched set must equal the on-set at round boundaries"
            );
            max_tracked = max_tracked.max(g.tracked_pairs());
        }
        // Far below the ~780 pairs; bounded by the working set.
        let alpha = p / (p + q);
        let expected = alpha * pair_count(n) as f64;
        assert!(
            (max_tracked as f64) < 4.0 * expected,
            "max tracked {max_tracked} vs stationary on-set {expected}"
        );
        // The exact-scan twin tracks everything, as documented.
        let exact = SparseTwoStateEdgeMeg::stationary(n, p, q, 17).unwrap();
        assert_eq!(exact.tracked_pairs() as u64, pair_count(n));
    }

    #[test]
    fn retirement_preserves_holding_times() {
        // A retired pair's next birth comes from the lazy sweep; its
        // waiting time must still be Geometric(p) (mean 1/p), and on-runs
        // Geometric(q) (mean 1/q) — the distribution-equivalence half of
        // the retire-to-untouched change.
        let n = 16;
        let (p, q) = (0.2, 0.5);
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, 23).unwrap();
        let (eu, ev) = edge_pair(0);
        let mut off_runs = Vec::new();
        let mut on_runs = Vec::new();
        let mut run = 0u32;
        let mut was_on = None;
        for _ in 0..40_000 {
            let on = g.step().has_edge(eu, ev);
            match was_on {
                Some(prev) if prev == on => run += 1,
                Some(prev) => {
                    if prev {
                        on_runs.push(run as f64);
                    } else {
                        off_runs.push(run as f64);
                    }
                    run = 1;
                }
                None => run = 1,
            }
            was_on = Some(on);
        }
        let on: Summary = on_runs.into_iter().collect();
        let off: Summary = off_runs.into_iter().collect();
        assert!(on.len() > 500 && off.len() > 500);
        assert!((on.mean() - 1.0 / q).abs() < 0.2, "on mean {}", on.mean());
        assert!(
            (off.mean() - 1.0 / p).abs() < 0.5,
            "off mean {}",
            off.mean()
        );
    }

    #[test]
    fn sparse_init_time_average_density_stationary() {
        // The lazy birth sweep plus calendar deaths must hold the process
        // at its stationary density from round 0 onwards.
        let n = 40;
        let (p, q) = (0.02, 0.08);
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, 3).unwrap();
        let rounds = 4_000;
        let mut total = 0usize;
        for _ in 0..rounds {
            total += g.step().edge_count();
        }
        let expected = p / (p + q) * pair_count(n) as f64;
        let mean = total as f64 / rounds as f64;
        assert!((mean / expected - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn sparse_init_far_future_births_fire() {
        // Tiny p: initial births fall entirely to the lazy sweep, deaths
        // reschedule far beyond the calendar horizon. The long-run
        // density must still converge to alpha = 0.5.
        let n = 24;
        let mut g = SparseTwoStateEdgeMeg::stationary_sparse_init(n, 1e-4, 1e-4, 11).unwrap();
        let mut total = 0usize;
        for _ in 0..30_000 {
            total += g.step().edge_count();
        }
        let expected = 0.5 * pair_count(n) as f64;
        let mean = total as f64 / 30_000.0;
        assert!((mean / expected - 1.0).abs() < 0.2, "mean = {mean}");
    }

    /// χ² statistic of round-0 on-edge counts over `buckets` equal slices
    /// of the pair index, aggregated over `seeds` independent instances
    /// of a stationary model with edge density `alpha`. Each bucket
    /// count is an independent Binomial(slice · seeds, α), so the
    /// statistic is ≈ χ² with `buckets` degrees of freedom.
    fn init_chi_square<G: EvolvingGraph>(make: impl Fn(u64) -> G, alpha: f64, seeds: u64) -> f64 {
        let pairs = pair_count(make(0).node_count());
        let buckets = 16u64;
        let slice = pairs / buckets;
        let mut counts = vec![0u64; buckets as usize];
        for seed in 0..seeds {
            let mut g = make(seed);
            // E_0 is the seeded set stepped once; a stationary chain
            // stepped once is still stationary, so α bands apply as-is.
            let snap = g.step();
            for (u, v) in snap.edges() {
                let e = crate::edge_index(u, v);
                if e < slice * buckets {
                    counts[(e / slice) as usize] += 1;
                }
            }
        }
        let trials = (slice as f64) * seeds as f64;
        let exp = trials * alpha;
        let var = trials * alpha * (1.0 - alpha);
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - exp;
                d * d / var
            })
            .sum()
    }

    #[test]
    fn init_distributions_pass_chi_square() {
        // 16 degrees of freedom: mean 16, sd √32 ≈ 5.7. 50 is ≈ 6σ —
        // deterministic seeds make this a fixed, regression-pinning
        // check that every initializer spreads on-edges uniformly over
        // the pair index.
        let n = 64;
        let (p, q) = (0.1, 0.3);
        let alpha = p / (p + q);
        for (label, chi2) in [
            (
                "exact-scan",
                init_chi_square(
                    |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap(),
                    alpha,
                    25,
                ),
            ),
            (
                "sparse-init",
                init_chi_square(
                    |s| SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, s).unwrap(),
                    alpha,
                    25,
                ),
            ),
            (
                "lane model",
                init_chi_square(
                    |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap(),
                    alpha,
                    25,
                ),
            ),
        ] {
            assert!(chi2 < 50.0, "{label} χ² = {chi2}");
        }
    }

    /// Mean and variance of the round-0 degree distribution aggregated
    /// over seeds (degrees are Binomial(n-1, α) under stationarity).
    fn degree_moments<G: EvolvingGraph>(make: impl Fn(u64) -> G, seeds: u64) -> (f64, f64) {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut count = 0.0;
        for seed in 0..seeds {
            let mut g = make(seed);
            let n = g.node_count() as u32;
            let snap = g.step();
            for u in 0..n {
                let d = snap.degree(u) as f64;
                sum += d;
                sum_sq += d * d;
                count += 1.0;
            }
        }
        let mean = sum / count;
        (mean, sum_sq / count - mean * mean)
    }

    #[test]
    fn init_distributions_match_degree_moments() {
        let n = 64;
        let (p, q) = (0.1, 0.3);
        let alpha = p / (p + q);
        let expect_mean = (n - 1) as f64 * alpha;
        let expect_var = (n - 1) as f64 * alpha * (1.0 - alpha);
        for (label, (mean, var)) in [
            (
                "exact",
                degree_moments(
                    |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).unwrap(),
                    30,
                ),
            ),
            (
                "sparse",
                degree_moments(
                    |s| SparseTwoStateEdgeMeg::stationary_sparse_init(n, p, q, s).unwrap(),
                    30,
                ),
            ),
            (
                "lane model",
                degree_moments(
                    |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).unwrap(),
                    30,
                ),
            ),
        ] {
            assert!(
                (mean / expect_mean - 1.0).abs() < 0.05,
                "{label} degree mean {mean} vs {expect_mean}"
            );
            assert!(
                (var / expect_var - 1.0).abs() < 0.15,
                "{label} degree variance {var} vs {expect_var}"
            );
        }
    }

    #[test]
    fn sparse_init_engine_paths_agree() {
        use dynagraph::engine::Simulation;
        use dynagraph::HideDeltas;
        let n = 96;
        let model = move |seed| {
            SparseTwoStateEdgeMeg::stationary_sparse_init(n, 2.0 / n as f64, 0.3, seed).unwrap()
        };
        let run = || {
            Simulation::builder()
                .trials(4)
                .warm_up(5)
                .max_rounds(10_000)
        };
        assert_eq!(
            run().model(move |seed| HideDeltas(model(seed))).run(),
            run().model(model).run()
        );
    }
}
