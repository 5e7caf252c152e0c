//! The basic two-state edge-MEG (dense per-round simulation).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dg_markov::{MarkovError, TwoStateChain};
use dynagraph::{mix_seed, EdgeDelta, EvolvingGraph, Snapshot};

use crate::pairs::{edge_pair, pair_count};

/// How the edge states are initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Init {
    /// Each edge on independently with the stationary probability
    /// `p/(p+q)` — the *stationary* edge-MEG of the paper's bounds.
    Stationary,
    /// All edges absent (worst-case bootstrap, used to probe mixing).
    AllOff,
    /// All edges present.
    AllOn,
}

/// The basic edge-MEG of Appendix A: every unordered pair of nodes hosts
/// an independent two-state chain with birth rate `p` and death rate `q`.
///
/// This implementation flips every potential edge each round (`O(n²)` per
/// round) — simple and exactly the defined process. For large sparse
/// instances use [`crate::SparseTwoStateEdgeMeg`], which is equivalent in
/// distribution.
///
/// # Examples
///
/// ```
/// use dg_edge_meg::TwoStateEdgeMeg;
/// use dynagraph::EvolvingGraph;
///
/// let mut g = TwoStateEdgeMeg::stationary(32, 0.1, 0.1, 7).unwrap();
/// assert_eq!(g.node_count(), 32);
/// // Stationary density is p/(p+q) = 1/2 of the 496 pairs on average.
/// let m = g.step().edge_count();
/// assert!(m > 150 && m < 350, "m = {m}");
/// ```
#[derive(Debug, Clone)]
pub struct TwoStateEdgeMeg {
    n: usize,
    chain: TwoStateChain,
    init: Init,
    alive: Vec<bool>,
    rng: SmallRng,
    snapshot: Snapshot,
    edge_buf: Vec<(u32, u32)>,
    synced: bool,
}

impl TwoStateEdgeMeg {
    fn with_init(n: usize, p: f64, q: f64, seed: u64, init: Init) -> Result<Self, MarkovError> {
        let chain = TwoStateChain::new(p, q)?;
        if n < 2 {
            return Err(MarkovError::DimensionMismatch {
                expected: 2,
                found: n,
            });
        }
        let mut meg = TwoStateEdgeMeg {
            n,
            chain,
            init,
            alive: vec![false; pair_count(n) as usize],
            rng: SmallRng::seed_from_u64(seed),
            snapshot: Snapshot::empty(n),
            edge_buf: Vec::new(),
            synced: false,
        };
        meg.reset(seed);
        Ok(meg)
    }

    /// Creates a stationary edge-MEG: each edge starts on independently
    /// with probability `p/(p+q)`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rates (see
    /// [`dg_markov::TwoStateChain::new`]) or `n < 2`.
    pub fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        Self::with_init(n, p, q, seed, Init::Stationary)
    }

    /// Creates an edge-MEG started from the empty graph (worst-case
    /// initialization; it converges to stationarity in `Θ(1/(p+q))`
    /// rounds).
    ///
    /// # Errors
    ///
    /// Same as [`TwoStateEdgeMeg::stationary`].
    pub fn from_empty(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        Self::with_init(n, p, q, seed, Init::AllOff)
    }

    /// Creates an edge-MEG started from the complete graph.
    ///
    /// # Errors
    ///
    /// Same as [`TwoStateEdgeMeg::stationary`].
    pub fn from_complete(n: usize, p: f64, q: f64, seed: u64) -> Result<Self, MarkovError> {
        Self::with_init(n, p, q, seed, Init::AllOn)
    }

    /// The per-edge chain.
    pub fn chain(&self) -> &TwoStateChain {
        &self.chain
    }

    /// The stationary edge density `α = p/(p+q)`.
    pub fn alpha(&self) -> f64 {
        self.chain.stationary_on()
    }

    /// Closed-form per-edge mixing time at TV tolerance `eps`.
    pub fn mixing_time(&self, eps: f64) -> usize {
        self.chain.mixing_time(eps).unwrap_or(0)
    }

    /// The paper's Appendix-A flooding bound for this instance:
    /// `O((1/(p+q))·((p+q)/(np)+1)²·log² n)`.
    pub fn general_flooding_bound(&self) -> f64 {
        dynagraph::theory::edge_meg_general_bound(self.n, self.chain.birth(), self.chain.death())
    }

    /// The CMMPS'10 almost-tight bound `O(log n / log(1+np))` (paper
    /// Eq. 2).
    pub fn cmmps_flooding_bound(&self) -> f64 {
        dynagraph::theory::edge_meg_cmmps_bound(self.n, self.chain.birth())
    }

    /// One round of every pair's chain: visits the pairs once, in index
    /// order, flips each with its birth or death probability and hands
    /// `(index, was_on, is_on)` to `visit`. The one transition behind
    /// `step` and both `step_delta` paths.
    #[inline]
    fn round(&mut self, mut visit: impl FnMut(u64, bool, bool)) {
        let p = self.chain.birth();
        let q = self.chain.death();
        for (e, on) in self.alive.iter_mut().enumerate() {
            let was = *on;
            // Write only on a flip: most pairs keep their state, and an
            // unconditional store dirties every cache line of `alive`.
            if was {
                if self.rng.gen_bool(q) {
                    *on = false;
                }
            } else if self.rng.gen_bool(p) {
                *on = true;
            }
            visit(e as u64, was, *on);
        }
    }
}

impl EvolvingGraph for TwoStateEdgeMeg {
    fn node_count(&self) -> usize {
        self.n
    }

    fn step(&mut self) -> &Snapshot {
        let mut edges = std::mem::take(&mut self.edge_buf);
        edges.clear();
        self.round(|e, _, on| {
            if on {
                edges.push(edge_pair(e));
            }
        });
        self.snapshot.rebuild_from_edges(&edges);
        self.edge_buf = edges;
        self.synced = false;
        &self.snapshot
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        // The same round (and RNG stream) as `step`; the flips *are* the
        // delta, so no snapshot is built. The per-round cost is still
        // O(n²) coin flips — inherent to the dense model; use
        // `SparseTwoStateEdgeMeg` for churn-proportional stepping.
        delta.begin_round();
        if self.synced {
            self.round(|e, was, on| match (was, on) {
                (false, true) => delta.push_added(edge_pair(e)),
                (true, false) => delta.push_removed(edge_pair(e)),
                _ => {}
            });
        } else {
            self.round(|e, _, on| {
                if on {
                    delta.push_added(edge_pair(e));
                }
            });
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
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0xED6E));
        match self.init {
            Init::Stationary => {
                let alpha = self.chain.stationary_on();
                for a in &mut self.alive {
                    *a = self.rng.gen_bool(alpha);
                }
            }
            Init::AllOff => self.alive.fill(false),
            Init::AllOn => self.alive.fill(true),
        }
        self.synced = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynagraph::flooding::flood;

    #[test]
    fn stationary_density_holds() {
        let mut g = TwoStateEdgeMeg::stationary(40, 0.02, 0.08, 3).unwrap();
        // alpha = 0.2; average over rounds should be close.
        let mut total = 0usize;
        let rounds = 300;
        for _ in 0..rounds {
            total += g.step().edge_count();
        }
        let mean = total as f64 / rounds as f64;
        let expected = 0.2 * pair_count(40) as f64;
        assert!((mean / expected - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn from_empty_converges_to_stationary_density() {
        let mut g = TwoStateEdgeMeg::from_empty(30, 0.1, 0.1, 5).unwrap();
        assert!((g.step().edge_count() as u64) < pair_count(30) / 4); // early rounds sparse-ish
        g.warm_up(200);
        let m = g.step().edge_count();
        let expected = 0.5 * pair_count(30) as f64;
        assert!((m as f64 / expected - 1.0).abs() < 0.25, "m = {m}");
    }

    #[test]
    fn from_complete_starts_full() {
        let mut g = TwoStateEdgeMeg::from_complete(10, 0.5, 1e-9, 1).unwrap();
        // Death rate ~ 0: graph stays essentially complete.
        assert_eq!(g.step().edge_count() as u64, pair_count(10));
    }

    #[test]
    fn p_one_gives_complete_graph() {
        let mut g = TwoStateEdgeMeg::from_empty(12, 1.0, 1e-9, 9).unwrap();
        assert_eq!(g.step().edge_count() as u64, pair_count(12));
        let run = flood(&mut g, 0, 5);
        assert_eq!(run.flooding_time(), Some(1));
    }

    #[test]
    fn dense_meg_floods_fast() {
        let mut g = TwoStateEdgeMeg::stationary(64, 0.2, 0.2, 11).unwrap();
        let run = flood(&mut g, 0, 100);
        let t = run.flooding_time().unwrap();
        assert!(t <= 5, "t = {t}");
    }

    #[test]
    fn sparse_meg_floods_within_bound_shape() {
        let n = 128;
        let p = 1.0 / n as f64;
        let q = 0.5;
        let mut g = TwoStateEdgeMeg::stationary(n, p, q, 13).unwrap();
        let run = flood(&mut g, 0, 50_000);
        let t = run.flooding_time().unwrap() as f64;
        let bound = dynagraph::theory::edge_meg_general_bound(n, p, q);
        assert!(t <= bound, "t = {t}, bound = {bound}");
    }

    #[test]
    fn reset_reproducible() {
        let mut g = TwoStateEdgeMeg::stationary(20, 0.3, 0.3, 2).unwrap();
        g.reset(123);
        let a: Vec<_> = g.step().edges().collect();
        g.reset(123);
        let b: Vec<_> = g.step().edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(TwoStateEdgeMeg::stationary(10, 0.0, 0.0, 0).is_err());
        assert!(TwoStateEdgeMeg::stationary(10, 1.5, 0.1, 0).is_err());
        assert!(TwoStateEdgeMeg::stationary(1, 0.1, 0.1, 0).is_err());
    }

    #[test]
    fn bounds_accessible() {
        let g = TwoStateEdgeMeg::stationary(100, 0.01, 0.1, 0).unwrap();
        assert!((g.alpha() - 1.0 / 11.0).abs() < 1e-12);
        assert!(g.mixing_time(0.01) > 0);
        assert!(g.general_flooding_bound() > 0.0);
        assert!(g.cmmps_flooding_bound() > 0.0);
    }
}
