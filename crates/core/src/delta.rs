//! Delta-native stepping: per-round edge churn instead of full rebuilds.
//!
//! The paper's sparse regimes (`pn = O(polylog n)`) change only a handful
//! of edges per round even when the simulation runs for tens of thousands
//! of rounds, yet a [`Snapshot`]-per-round pipeline pays `O(m + n)` every
//! round regardless. This module provides the delta-native alternative:
//!
//! * [`EdgeDelta`] — one round's churn, `{added, removed}` undirected
//!   edges, produced by [`EvolvingGraph::step_delta`];
//! * [`DynAdjacency`] — an incremental adjacency structure that applies
//!   deltas in `O(churn · log deg)` and can lazily materialize a CSR
//!   [`Snapshot`] only when a consumer actually asks for `E_t`
//!   (flat sorted edge lists use [`EdgeDelta::apply_to_sorted`] instead).
//!
//! Producers with native deltas (the edge-MEGs, the node-MEG, the
//! geometric mobility MEG, recorded replays, and the §5
//! [`ThinnedEvolvingGraph`]/[`JammedEvolvingGraph`] wrappers) advertise
//! themselves via [`EvolvingGraph::has_native_deltas`]; everything else
//! falls back to the default [`EvolvingGraph::step_delta`], which steps
//! the snapshot path and diffs — third-party models keep working
//! unchanged.
//!
//! [`EvolvingGraph::step`]: crate::EvolvingGraph::step
//! [`EvolvingGraph::step_delta`]: crate::EvolvingGraph::step_delta
//! [`EvolvingGraph::has_native_deltas`]: crate::EvolvingGraph::has_native_deltas
//! [`EvolvingGraph::rebase_deltas`]: crate::EvolvingGraph::rebase_deltas
//! [`EvolvingGraph::reset`]: crate::EvolvingGraph::reset
//! [`EvolvingGraph::warm_up`]: crate::EvolvingGraph::warm_up
//! [`ThinnedEvolvingGraph`]: crate::ThinnedEvolvingGraph
//! [`JammedEvolvingGraph`]: crate::JammedEvolvingGraph
//!
//! # Examples
//!
//! ```
//! use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph, StaticEvolvingGraph};
//! use dg_graph::generators;
//!
//! let mut g = StaticEvolvingGraph::new(generators::cycle(5));
//! let mut adj = DynAdjacency::new(5);
//! let mut delta = EdgeDelta::new();
//! g.step_delta(&mut delta);
//! adj.apply(&delta);
//! assert_eq!(delta.added().len(), 5); // first delta carries the full E_0
//! g.step_delta(&mut delta);
//! assert!(delta.is_empty()); // a static graph has zero churn afterwards
//! assert_eq!(adj.snapshot().edge_count(), 5);
//! ```
//!
//! # The delta contract
//!
//! Every delta is **relative to the edge set exposed by the process's
//! previous `step`/`step_delta` call**. The first delta after any of the
//! following *baseline breaks* is a **full emission** — the process's
//! entire current edge set as [`EdgeDelta::added`], relative to the
//! empty graph:
//!
//! * construction,
//! * [`EvolvingGraph::reset`],
//! * [`EvolvingGraph::warm_up`] (it rebases after advancing),
//! * a plain [`EvolvingGraph::step`] on a native-delta model,
//! * an explicit [`EvolvingGraph::rebase_deltas`] call.
//!
//! A consumer that attaches a *fresh* [`DynAdjacency`] (or any
//! empty-initialized incremental structure) to a process mid-stream must
//! therefore call `rebase_deltas()` first, so the stream restarts from a
//! full emission; the engine and [`crate::flooding::flood`] do this for
//! you. The whole contract is observable:
//!
//! ```
//! use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph, PeriodicEvolvingGraph};
//! use dg_graph::generators;
//!
//! let graphs = [generators::path(6), generators::star(6)];
//! let mut g = PeriodicEvolvingGraph::new(&graphs).unwrap();
//! let mut delta = EdgeDelta::new();
//!
//! // 1. After construction: full emission (E_0 = the path, 5 edges).
//! g.step_delta(&mut delta);
//! assert_eq!((delta.added().len(), delta.removed().len()), (5, 0));
//!
//! // 2. Mid-stream: genuine churn only (path -> star on 6 nodes).
//! g.step_delta(&mut delta);
//! assert!(delta.churn() > 0 && delta.churn() < 10);
//!
//! // 3. A plain step() breaks the baseline...
//! let _ = g.step();
//!
//! // ...so the next delta is a full emission again (the star, 5 edges),
//! // and a *fresh* adjacency can safely join the stream here.
//! let mut adj = DynAdjacency::new(6);
//! g.rebase_deltas(); // explicit rebase: idempotent after the plain step
//! g.step_delta(&mut delta);
//! adj.apply(&delta);
//! assert_eq!(delta.removed().len(), 0);
//! assert_eq!(adj.edge_count(), delta.added().len());
//! ```
//!
//! For warm-up the same rule means no snapshot is ever materialized and
//! the consumer still starts from a coherent baseline:
//!
//! ```
//! use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph, StaticEvolvingGraph};
//! use dg_graph::generators;
//!
//! let mut g = StaticEvolvingGraph::new(generators::cycle(7));
//! g.warm_up(100); // delta path internally, then rebases
//! let mut delta = EdgeDelta::new();
//! g.step_delta(&mut delta);
//! assert_eq!(delta.added().len(), 7); // full warmed-up edge set
//! ```
//!
//! # Implementing `step_delta`: when and how
//!
//! Third-party models only need [`EvolvingGraph::step`]; the default
//! `step_delta` diffs consecutive snapshots (correct, not faster). Add a
//! native implementation when the model can enumerate its churn in
//! `O(churn)`:
//!
//! | your model                                           | do |
//! |------------------------------------------------------|----|
//! | state transitions *are* edge changes (flips, toggle events, meeting enter/leave) | implement `step_delta` + `has_native_deltas` + `rebase_deltas`; consume exactly the RNG that `step` would; validate with [`assert_replays_rebuild`] |
//! | wraps another model and re-decides every edge per round (thinning, jamming) | implement it as a *sweep* over an incrementally maintained inner edge list (see [`crate::ThinnedEvolvingGraph`]): per-round cost `O(\|E_t\| + churn)` with no `O(n)` CSR term |
//! | cheap full edge list, no churn structure             | keep the default (steps + diffs snapshots) |
//!
//! The three native methods obey one invariant: **`step` and
//! `step_delta` must realize identical edge-set sequences from the same
//! seed** (same draws, same order). `rebase_deltas` only forgets the
//! baseline — the next delta emits the full set — and must never advance
//! the process or consume randomness.

use crate::{EvolvingGraph, Snapshot};

/// An undirected edge `(u, v)` with `u < v`.
pub type Edge = (u32, u32);

/// One recorded round's churn as owned lists: `(added, removed)`.
pub type DeltaPair = (Vec<Edge>, Vec<Edge>);

/// One round's edge churn: the undirected edges that appeared and
/// disappeared relative to the previous round's edge set.
///
/// Deltas are relative to the edge set exposed by the process's previous
/// [`step`](crate::EvolvingGraph::step) /
/// [`step_delta`](crate::EvolvingGraph::step_delta) call; the first delta
/// after construction, [`reset`](crate::EvolvingGraph::reset),
/// [`warm_up`](crate::EvolvingGraph::warm_up) or a plain `step` describes
/// the full edge set relative to the empty graph.
///
/// The buffer is reusable: consumers allocate one `EdgeDelta` and pass it
/// to `step_delta` every round. It also carries the scratch state used by
/// the default snapshot-diffing implementation, so reuse the *same*
/// buffer for one process; start a fresh one (or [`EdgeDelta::clear`] it)
/// when switching processes.
#[derive(Debug, Clone, Default)]
pub struct EdgeDelta {
    added: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
    /// Previous round's sorted edge list — scratch for the default
    /// snapshot-diffing `step_delta`.
    prev: Vec<(u32, u32)>,
    next: Vec<(u32, u32)>,
}

/// Merge-diffs two lexicographically sorted edge lists.
fn merge_diff(
    prev: &[(u32, u32)],
    now: &[(u32, u32)],
    added: &mut Vec<(u32, u32)>,
    removed: &mut Vec<(u32, u32)>,
) {
    let mut i = 0;
    for &e in now {
        while i < prev.len() && prev[i] < e {
            removed.push(prev[i]);
            i += 1;
        }
        if i < prev.len() && prev[i] == e {
            i += 1;
        } else {
            added.push(e);
        }
    }
    removed.extend_from_slice(&prev[i..]);
}

impl EdgeDelta {
    /// An empty delta buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Edges that appeared this round (`u < v`).
    pub fn added(&self) -> &[(u32, u32)] {
        &self.added
    }

    /// Edges that disappeared this round (`u < v`).
    pub fn removed(&self) -> &[(u32, u32)] {
        &self.removed
    }

    /// Total churn: `|added| + |removed|`.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// `true` if nothing changed this round.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Starts recording a new round: clears `added`/`removed` (producer
    /// API; leaves the diffing scratch alone).
    pub fn begin_round(&mut self) {
        self.added.clear();
        self.removed.clear();
    }

    /// Records an appearing edge (producer API).
    #[inline]
    pub fn push_added(&mut self, edge: (u32, u32)) {
        self.added.push(edge);
    }

    /// Records a disappearing edge (producer API).
    #[inline]
    pub fn push_removed(&mut self, edge: (u32, u32)) {
        self.removed.push(edge);
    }

    /// Records a full emission: the process's entire current edge set as
    /// `added`, relative to the empty graph (producer API, used for the
    /// first delta after construction/reset/warm-up).
    pub fn record_full<I: IntoIterator<Item = (u32, u32)>>(&mut self, edges: I) {
        self.begin_round();
        self.added.extend(edges);
    }

    /// Appends another delta's churn to this one (producer API). Lane
    /// stepping ([`crate::shard`]) records each lane's churn into its own
    /// buffer in parallel and then concatenates them *in lane order*, so
    /// the merged delta is identical to what a serial sweep over the
    /// lanes would have recorded.
    pub fn merge_from(&mut self, other: &EdgeDelta) {
        self.added.extend_from_slice(&other.added);
        self.removed.extend_from_slice(&other.removed);
    }

    /// Records the diff between two lexicographically sorted edge lists
    /// (producer API for models that naturally produce per-round edge
    /// lists, e.g. geometric models).
    pub fn record_transition(&mut self, prev: &[(u32, u32)], now: &[(u32, u32)]) {
        self.begin_round();
        merge_diff(prev, now, &mut self.added, &mut self.removed);
    }

    /// Diffs a freshly materialized snapshot against the previous one
    /// seen *by this buffer* — the engine of the default
    /// [`step_delta`](crate::EvolvingGraph::step_delta) implementation.
    pub fn diff_snapshot(&mut self, snap: &Snapshot) {
        self.begin_round();
        self.next.clear();
        self.next.extend(snap.edges());
        merge_diff(&self.prev, &self.next, &mut self.added, &mut self.removed);
        std::mem::swap(&mut self.prev, &mut self.next);
    }

    /// Forgets everything, including the diffing scratch: the next
    /// default-path delta will be a full emission again.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
        self.prev.clear();
        self.next.clear();
    }

    /// Applies this delta to a lexicographically sorted edge list,
    /// keeping it sorted — the flat-list counterpart of
    /// [`DynAdjacency::apply`] for consumers that sweep whole edge sets
    /// per round (e.g. the §5 [`crate::ThinnedEvolvingGraph`] /
    /// [`crate::JammedEvolvingGraph`] wrappers). `O(|edges| + churn log churn)`.
    ///
    /// # Panics
    ///
    /// Panics if a removed edge is absent from `edges` or an added edge
    /// is already present — same out-of-sync rationale as
    /// [`DynAdjacency::apply`].
    ///
    /// # Examples
    ///
    /// ```
    /// use dynagraph::EdgeDelta;
    ///
    /// let mut edges = vec![(0, 1), (1, 2)];
    /// let mut d = EdgeDelta::new();
    /// d.begin_round();
    /// d.push_removed((1, 2));
    /// d.push_added((0, 3));
    /// d.apply_to_sorted(&mut edges);
    /// assert_eq!(edges, vec![(0, 1), (0, 3)]);
    /// ```
    pub fn apply_to_sorted(&self, edges: &mut Vec<Edge>) {
        let mut scratch = Vec::new();
        self.apply_to_sorted_with(edges, &mut scratch);
    }

    /// [`EdgeDelta::apply_to_sorted`] with a caller-owned merge buffer —
    /// the per-round hot-path variant. `scratch` receives the old list
    /// (contents unspecified afterwards); reuse both vectors across
    /// rounds and no allocation happens once they reach steady size.
    /// When `added`/`removed` are already sorted (true for
    /// [`EdgeDelta::record_transition`]/[`EdgeDelta::diff_snapshot`]
    /// products), they are consumed in place; unsorted producer streams
    /// pay one churn-sized sort copy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`EdgeDelta::apply_to_sorted`].
    pub fn apply_to_sorted_with(&self, edges: &mut Vec<Edge>, scratch: &mut Vec<Edge>) {
        fn is_sorted(xs: &[Edge]) -> bool {
            xs.windows(2).all(|w| w[0] < w[1])
        }
        if self.is_empty() {
            return;
        }
        // Borrow in-place when the producer already emits sorted runs;
        // otherwise sort a churn-sized copy (never the full edge list).
        let (removed_buf, added_buf);
        let removed: &[Edge] = if is_sorted(&self.removed) {
            &self.removed
        } else {
            removed_buf = {
                let mut v = self.removed.clone();
                v.sort_unstable();
                v
            };
            &removed_buf
        };
        let added: &[Edge] = if is_sorted(&self.added) {
            &self.added
        } else {
            added_buf = {
                let mut v = self.added.clone();
                v.sort_unstable();
                v
            };
            &added_buf
        };
        scratch.clear();
        scratch.reserve((edges.len() + added.len()).saturating_sub(removed.len()));
        let mut ri = 0;
        let mut ai = 0;
        for &e in edges.iter() {
            while ai < added.len() && added[ai] < e {
                scratch.push(added[ai]);
                ai += 1;
            }
            assert!(
                ai >= added.len() || added[ai] != e,
                "delta added edge {e:?} that is already present"
            );
            if ri < removed.len() && removed[ri] == e {
                ri += 1;
            } else {
                scratch.push(e);
            }
        }
        assert!(
            ri == removed.len(),
            "delta removed edge {:?} that is not present",
            removed[ri]
        );
        scratch.extend_from_slice(&added[ai..]);
        std::mem::swap(edges, scratch);
    }
}

/// An incremental adjacency structure over a fixed vertex set `[n]`.
///
/// Applies an [`EdgeDelta`] in `O(churn · log deg)` (sorted per-node
/// neighbor lists, binary-searched inserts/removals) and lazily
/// materializes a CSR [`Snapshot`] — byte-identical to
/// [`Snapshot::rebuild_from_edges`] over the same edge set — only when
/// [`DynAdjacency::snapshot`] is called.
///
/// # Examples
///
/// ```
/// use dynagraph::{DynAdjacency, EdgeDelta};
///
/// let mut adj = DynAdjacency::new(4);
/// let mut d = EdgeDelta::new();
/// d.record_full([(0, 1), (1, 2)]);
/// adj.apply(&d);
/// assert_eq!(adj.neighbors(1), &[0, 2]);
/// d.begin_round();
/// d.push_removed((0, 1));
/// d.push_added((2, 3));
/// adj.apply(&d);
/// assert_eq!(adj.edge_count(), 2);
/// assert!(adj.has_edge(2, 3) && !adj.has_edge(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct DynAdjacency {
    adj: Vec<Vec<u32>>,
    edge_count: usize,
    csr: Snapshot,
    csr_dirty: bool,
}

impl Default for DynAdjacency {
    /// An edgeless adjacency over zero nodes — re-target it with
    /// [`DynAdjacency::reset`] before use (the trial-scratch pattern).
    fn default() -> Self {
        DynAdjacency::new(0)
    }
}

impl DynAdjacency {
    /// An edgeless adjacency over `n` nodes.
    pub fn new(n: usize) -> Self {
        DynAdjacency {
            adj: vec![Vec::new(); n],
            edge_count: 0,
            csr: Snapshot::empty(n),
            csr_dirty: false,
        }
    }

    /// Clears every edge and re-targets the structure at a (possibly
    /// different) vertex set `[n]` — the trial-reuse counterpart of
    /// [`DynAdjacency::new`]. Per-node neighbor lists keep their
    /// capacity, so a worker running many trials over same-sized models
    /// allocates adjacency memory once and never again.
    pub fn reset(&mut self, n: usize) {
        self.adj.truncate(n);
        for list in &mut self.adj {
            list.clear();
        }
        self.adj.resize_with(n, Vec::new);
        self.edge_count = 0;
        if self.csr.node_count() != n {
            self.csr = Snapshot::empty(n);
        }
        self.csr_dirty = true;
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if no edge is currently present.
    pub fn is_edgeless(&self) -> bool {
        self.edge_count == 0
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: u32) -> usize {
        self.adj[u as usize].len()
    }

    /// Sorted adjacency list of `u` — identical to what the materialized
    /// snapshot's [`Snapshot::neighbors`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }

    /// `true` if edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return false;
        }
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Iterates over the current undirected edges `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, neigh)| {
            let u = u as u32;
            neigh
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    fn half_insert(&mut self, u: u32, v: u32) {
        half_insert_list(&mut self.adj[u as usize], u, v);
    }

    fn half_remove(&mut self, u: u32, v: u32) {
        half_remove_list(&mut self.adj[u as usize], u, v);
    }

    /// Inserts edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or if the edge is
    /// already present — a delta stream that double-adds is out of sync
    /// with this adjacency, and failing loudly beats silent corruption.
    pub fn insert_edge(&mut self, u: u32, v: u32) {
        assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
        self.half_insert(u, v);
        self.half_insert(v, u);
        self.edge_count += 1;
        self.csr_dirty = true;
    }

    /// Removes edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if the edge is absent or an endpoint is out of range (same
    /// rationale as [`DynAdjacency::insert_edge`]).
    pub fn remove_edge(&mut self, u: u32, v: u32) {
        self.half_remove(u, v);
        self.half_remove(v, u);
        self.edge_count -= 1;
        self.csr_dirty = true;
    }

    /// Applies one round's churn: removals first, then additions.
    ///
    /// A full emission into an edgeless adjacency — every trial's first
    /// delta — takes a bulk-load fast path: push-then-sort per node,
    /// `O(m log deg)` total, instead of `m` binary-searched
    /// `Vec::insert`s (`O(m · deg)` memmove traffic). The resulting
    /// structure is identical either way; on large sparse models this
    /// is the difference between trial *setup* and trial *work*.
    ///
    /// # Panics
    ///
    /// Panics if the delta is inconsistent with the current edge set
    /// (see [`DynAdjacency::insert_edge`] / [`DynAdjacency::remove_edge`]).
    pub fn apply(&mut self, delta: &EdgeDelta) {
        if self.edge_count == 0 && delta.removed().is_empty() {
            self.bulk_load(delta.added());
            return;
        }
        for &(u, v) in delta.removed() {
            self.remove_edge(u, v);
        }
        for &(u, v) in delta.added() {
            self.insert_edge(u, v);
        }
    }

    /// Loads an edge set into the (empty) adjacency: unsorted pushes,
    /// then one sort per *touched* node. For dense emissions the
    /// touched set is found by scanning all `n` lists (no bookkeeping);
    /// for emissions smaller than the vertex set it is collected and
    /// deduplicated explicitly, keeping tiny-emission rounds on huge
    /// vertex sets churn-proportional instead of `O(n)`. Keeps every
    /// `insert_edge` guarantee — self-loops and duplicate edges still
    /// panic.
    fn bulk_load(&mut self, added: &[Edge]) {
        debug_assert_eq!(self.edge_count, 0);
        if added.is_empty() {
            return;
        }
        let sparse_emission = added.len() * 2 < self.adj.len();
        let mut touched: Vec<u32> = Vec::new();
        if sparse_emission {
            touched.reserve(added.len() * 2);
        }
        for &(u, v) in added {
            assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
            if sparse_emission {
                touched.push(u);
                touched.push(v);
            }
        }
        let sort_check = |u: u32, list: &mut Vec<u32>| {
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                let (a, b) = (w[0].min(u), w[0].max(u));
                panic!("delta added edge ({a}, {b}) that is already present");
            }
        };
        if sparse_emission {
            touched.sort_unstable();
            touched.dedup();
            for &u in &touched {
                sort_check(u, &mut self.adj[u as usize]);
            }
        } else {
            for u in 0..self.adj.len() {
                sort_check(u as u32, &mut self.adj[u]);
            }
        }
        self.edge_count = added.len();
        self.csr_dirty = true;
    }

    /// Removes every edge (cheaper than re-allocating for a new run over
    /// the same vertex set).
    pub fn clear(&mut self) {
        for list in &mut self.adj {
            list.clear();
        }
        self.edge_count = 0;
        self.csr_dirty = true;
    }

    /// Splits the adjacency into disjoint, contiguous node-range views of
    /// `span` nodes each (the last may be shorter) for a *partitioned*
    /// delta apply: each view mutates only its own nodes' neighbor lists,
    /// so the views can run [`AdjacencyRange::apply_own_halves`] over the
    /// same delta on different threads with no synchronization — every
    /// edge's two halves land in (at most two) distinct views, and the
    /// per-list result is identical to a serial [`DynAdjacency::apply`].
    ///
    /// The views bypass the structure's edge-count and snapshot
    /// bookkeeping; after they are dropped the caller must call
    /// [`DynAdjacency::commit_partitioned`] with the same delta to
    /// restore the invariants.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn range_shards(&mut self, span: usize) -> Vec<AdjacencyRange<'_>> {
        assert!(span > 0, "shard span must be positive");
        self.adj
            .chunks_mut(span)
            .enumerate()
            .map(|(i, lists)| AdjacencyRange {
                base: (i * span) as u32,
                lists,
            })
            .collect()
    }

    /// Restores the invariants [`DynAdjacency::range_shards`] bypassed,
    /// once every view has applied `delta`: bumps the edge count by the
    /// delta's net churn and invalidates the cached snapshot.
    pub fn commit_partitioned(&mut self, delta: &EdgeDelta) {
        self.edge_count = self.edge_count + delta.added().len() - delta.removed().len();
        self.csr_dirty = true;
    }

    /// The current edge set as a CSR [`Snapshot`], materialized lazily:
    /// the rebuild runs only when edges changed since the last call.
    ///
    /// The result is byte-identical to
    /// [`Snapshot::rebuild_from_edges`] over [`DynAdjacency::edges`].
    pub fn snapshot(&mut self) -> &Snapshot {
        if self.csr_dirty {
            self.csr.rebuild_from_sorted_adjacency(&self.adj);
            self.csr_dirty = false;
        }
        &self.csr
    }
}

fn half_insert_list(list: &mut Vec<u32>, u: u32, v: u32) {
    match list.binary_search(&v) {
        Ok(_) => panic!("delta added edge ({u}, {v}) that is already present"),
        Err(pos) => list.insert(pos, v),
    }
}

fn half_remove_list(list: &mut Vec<u32>, u: u32, v: u32) {
    match list.binary_search(&v) {
        Ok(pos) => {
            list.remove(pos);
        }
        Err(_) => panic!("delta removed edge ({u}, {v}) that is not present"),
    }
}

/// A disjoint, contiguous node-range view into a [`DynAdjacency`],
/// produced by [`DynAdjacency::range_shards`] — the unit of work of the
/// engine's partitioned parallel delta apply. The view is `Send`, owns
/// the neighbor lists of nodes `[base, base + len)` exclusively, and
/// only ever mutates those, so one view per thread is race-free by
/// construction.
#[derive(Debug)]
pub struct AdjacencyRange<'a> {
    base: u32,
    lists: &'a mut [Vec<u32>],
}

impl AdjacencyRange<'_> {
    #[inline]
    fn owns(&self, u: u32) -> bool {
        u >= self.base && ((u - self.base) as usize) < self.lists.len()
    }

    #[inline]
    fn list_mut(&mut self, u: u32) -> &mut Vec<u32> {
        &mut self.lists[(u - self.base) as usize]
    }

    /// Applies the halves of `delta` incident to this range's nodes:
    /// all removals first, then all additions — the same canonical
    /// order as [`DynAdjacency::apply`], so once every range of a
    /// partition has run, the adjacency is identical to a serial apply.
    ///
    /// # Panics
    ///
    /// Panics on self-loops and on delta entries inconsistent with the
    /// current edge set (same rationale as [`DynAdjacency::apply`]).
    pub fn apply_own_halves(&mut self, delta: &EdgeDelta) {
        for &(u, v) in delta.removed() {
            if self.owns(u) {
                half_remove_list(self.list_mut(u), u, v);
            }
            if self.owns(v) {
                half_remove_list(self.list_mut(v), v, u);
            }
        }
        for &(u, v) in delta.added() {
            assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
            if self.owns(u) {
                half_insert_list(self.list_mut(u), u, v);
            }
            if self.owns(v) {
                half_insert_list(self.list_mut(v), v, u);
            }
        }
    }

    /// Bulk-loads a full emission's own halves into this range's (empty)
    /// lists: unsorted pushes, then one sort per own list — the
    /// partitioned counterpart of the bulk-load fast path every trial's
    /// first delta takes through [`DynAdjacency::apply`].
    ///
    /// # Panics
    ///
    /// Panics on self-loops and duplicate edges, like
    /// [`DynAdjacency::insert_edge`]; the caller must ensure the range's
    /// lists are empty (the engine only takes this path on an edgeless
    /// adjacency).
    pub fn bulk_load_own_halves(&mut self, added: &[Edge]) {
        for &(u, v) in added {
            assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
            if self.owns(u) {
                self.list_mut(u).push(v);
            }
            if self.owns(v) {
                self.list_mut(v).push(u);
            }
        }
        let base = self.base;
        for (i, list) in self.lists.iter_mut().enumerate() {
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                let u = base + i as u32;
                let (a, b) = (w[0].min(u), w[0].max(u));
                panic!("delta added edge ({a}, {b}) that is already present");
            }
        }
    }
}

/// Test/diagnostics helper: asserts that stepping `delta_model` through
/// [`EvolvingGraph::step_delta`] + [`DynAdjacency`] reproduces exactly
/// the [`Snapshot`] sequence of `rebuild_model` stepped through
/// [`EvolvingGraph::step`], for `rounds` rounds.
///
/// The two models must be independent instances configured with the same
/// seed. Useful for validating custom `step_delta` implementations.
///
/// # Panics
///
/// Panics (with the failing round) on the first mismatch.
pub fn assert_replays_rebuild<A, B>(rebuild_model: &mut A, delta_model: &mut B, rounds: usize)
where
    A: EvolvingGraph + ?Sized,
    B: EvolvingGraph + ?Sized,
{
    assert_eq!(rebuild_model.node_count(), delta_model.node_count());
    let mut adj = DynAdjacency::new(delta_model.node_count());
    let mut delta = EdgeDelta::new();
    for round in 0..rounds {
        delta_model.step_delta(&mut delta);
        adj.apply(&delta);
        let expected = rebuild_model.step();
        assert_eq!(
            adj.snapshot(),
            expected,
            "delta path diverged from rebuild path at round {round}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeriodicEvolvingGraph, StaticEvolvingGraph};
    use dg_graph::generators;

    #[test]
    fn merge_diff_finds_churn() {
        let mut d = EdgeDelta::new();
        d.record_transition(&[(0, 1), (1, 2), (3, 4)], &[(0, 1), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(d.added(), &[(2, 3), (4, 5)]);
        assert_eq!(d.removed(), &[(1, 2)]);
        assert_eq!(d.churn(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn diff_snapshot_tracks_prev() {
        let mut s = Snapshot::empty(4);
        let mut d = EdgeDelta::new();
        s.rebuild_from_edges(&[(0, 1), (2, 3)]);
        d.diff_snapshot(&s);
        assert_eq!(d.added(), &[(0, 1), (2, 3)]);
        assert!(d.removed().is_empty());
        s.rebuild_from_edges(&[(0, 1), (1, 2)]);
        d.diff_snapshot(&s);
        assert_eq!(d.added(), &[(1, 2)]);
        assert_eq!(d.removed(), &[(2, 3)]);
        d.clear();
        d.diff_snapshot(&s);
        assert_eq!(d.added().len(), 2, "cleared scratch diffs against empty");
    }

    #[test]
    fn adjacency_applies_and_materializes() {
        let mut adj = DynAdjacency::new(5);
        assert!(adj.is_edgeless());
        let mut d = EdgeDelta::new();
        d.record_full([(0, 4), (1, 2), (0, 2)]);
        adj.apply(&d);
        assert_eq!(adj.edge_count(), 3);
        assert_eq!(adj.degree(0), 2);
        assert_eq!(adj.neighbors(0), &[2, 4]);
        assert!(adj.has_edge(4, 0));
        assert!(!adj.has_edge(1, 4));
        assert!(!adj.has_edge(0, 99));
        let mut reference = Snapshot::empty(5);
        reference.rebuild_from_edges(&[(0, 4), (1, 2), (0, 2)]);
        assert_eq!(adj.snapshot(), &reference);
        let collected: Vec<_> = adj.edges().collect();
        assert_eq!(collected, vec![(0, 2), (0, 4), (1, 2)]);
    }

    #[test]
    fn snapshot_is_lazy_and_refreshes() {
        let mut adj = DynAdjacency::new(3);
        let mut d = EdgeDelta::new();
        d.record_full([(0, 1)]);
        adj.apply(&d);
        assert_eq!(adj.snapshot().edge_count(), 1);
        d.begin_round();
        d.push_removed((0, 1));
        d.push_added((1, 2));
        adj.apply(&d);
        assert!(adj.snapshot().has_edge(1, 2));
        assert!(!adj.snapshot().has_edge(0, 1));
        adj.clear();
        assert!(adj.snapshot().is_edgeless());
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        // The empty-adjacency fast path must build exactly the structure
        // the per-edge path builds, snapshot included.
        let edges = [(3u32, 1u32), (0, 4), (1, 2), (0, 2), (2, 4), (0, 1)];
        let mut d = EdgeDelta::new();
        d.record_full(edges);
        let mut bulk = DynAdjacency::new(5);
        bulk.apply(&d); // empty + no removals => bulk path
        let mut incremental = DynAdjacency::new(5);
        for &(u, v) in &edges {
            incremental.insert_edge(u, v);
        }
        assert_eq!(bulk.edge_count(), incremental.edge_count());
        for u in 0..5u32 {
            assert_eq!(bulk.neighbors(u), incremental.neighbors(u), "node {u}");
        }
        assert_eq!(bulk.snapshot(), incremental.snapshot());
        // A later non-empty round takes the incremental path again.
        d.begin_round();
        d.push_removed((0, 4));
        d.push_added((3, 4));
        bulk.apply(&d);
        assert!(bulk.has_edge(3, 4) && !bulk.has_edge(0, 4));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn bulk_load_rejects_duplicate_edges() {
        let mut d = EdgeDelta::new();
        d.record_full([(0, 1), (2, 1), (1, 0)]);
        let mut adj = DynAdjacency::new(3);
        adj.apply(&d);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn bulk_load_rejects_self_loops() {
        let mut d = EdgeDelta::new();
        d.record_full([(1, 1)]);
        let mut adj = DynAdjacency::new(3);
        adj.apply(&d);
    }

    #[test]
    fn reset_retargets_node_count_and_drops_edges() {
        let mut adj = DynAdjacency::new(3);
        adj.insert_edge(0, 2);
        adj.reset(5);
        assert_eq!(adj.node_count(), 5);
        assert!(adj.is_edgeless());
        assert_eq!(adj.snapshot(), &Snapshot::empty(5));
        adj.insert_edge(3, 4);
        adj.reset(2);
        assert_eq!(adj.node_count(), 2);
        assert!(!adj.has_edge(3, 4));
        assert_eq!(adj.snapshot(), &Snapshot::empty(2));
        // Same size: a reset behaves like a fresh structure.
        adj.insert_edge(0, 1);
        adj.reset(2);
        assert_eq!(adj.snapshot(), &Snapshot::empty(2));
        assert_eq!(DynAdjacency::default().node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_add_panics() {
        let mut adj = DynAdjacency::new(3);
        adj.insert_edge(0, 1);
        adj.insert_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn phantom_remove_panics() {
        let mut adj = DynAdjacency::new(3);
        adj.remove_edge(0, 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut adj = DynAdjacency::new(3);
        adj.insert_edge(1, 1);
    }

    #[test]
    fn default_path_replays_static_and_periodic() {
        let mut a = StaticEvolvingGraph::new(generators::grid(3, 3));
        let mut b = a.clone();
        assert_replays_rebuild(&mut a, &mut b, 5);

        let g1 = generators::path(4);
        let g2 = generators::complete(4);
        let mut a = PeriodicEvolvingGraph::new(&[g1.clone(), g2.clone()]).unwrap();
        let mut b = PeriodicEvolvingGraph::new(&[g1, g2]).unwrap();
        assert_replays_rebuild(&mut a, &mut b, 7);
    }
}
