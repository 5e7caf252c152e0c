//! Delta-native stepping: per-round edge churn instead of full rebuilds.
//!
//! The paper's sparse regimes (`pn = O(polylog n)`) change only a handful
//! of edges per round even when the simulation runs for tens of thousands
//! of rounds, yet a [`Snapshot`]-per-round pipeline pays `O(m + n)` every
//! round regardless. This module provides the delta-native alternative:
//!
//! * [`EdgeDelta`] — one round's churn, `{added, removed}` undirected
//!   edges, produced by [`EvolvingGraph::step_delta`];
//! * [`DynAdjacency`] — an incremental adjacency structure: one flat
//!   slab of 32-byte node slots (degree plus up to 7 sorted neighbours
//!   inline, per-block spill lists above that). It applies a delta in
//!   `O(churn)` for the bounded degrees of sparse models (on large
//!   vertex sets its half-edges are first counting-sorted by 1024-node
//!   block, so each stretch of the slab is written while hot), and
//!   lazily materializes a CSR [`Snapshot`] only
//!   when a consumer actually asks for `E_t` (flat sorted edge lists use
//!   [`EdgeDelta::apply_to_sorted`] instead).
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

/// log2 of the nodes per block: the unit of the bucketed apply and of
/// spill-list ownership.
const BLOCK_SHIFT: u32 = 10;
/// Nodes per block: 1024 slots of 32 bytes, a 32 KiB stretch of the slab.
const BLOCK: usize = 1 << BLOCK_SHIFT;
/// Neighbours a slot holds inline; a node of degree 8 or more spills.
const INLINE: usize = 7;
/// Up to this many blocks (a 1 MiB slab) a delta is applied directly,
/// without bucketing: the slab stays cache-resident, so grouping the
/// writes by block buys nothing and the two bucketing passes cost about
/// 15 ns per edge event. From 128 blocks on, bucketing wins (measured on
/// a 2-core Xeon with 2 MiB of L2).
const DIRECT_BLOCKS: usize = 32;

/// One node's 32-byte slot in the slab: `[degree, v_1, …, v_7]` with the
/// sorted neighbours inline while `degree <= 7`; above that
/// `[degree, spill id, …]`, the id naming a list in the node's block's
/// [`Spill`]. Aligned so that a slot never straddles a cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Slot([u32; 8]);

impl Slot {
    #[inline]
    fn degree(&self) -> usize {
        self.0[0] as usize
    }

    /// The sorted neighbour list; `spill` is the node's block's.
    #[inline]
    fn list<'a>(&'a self, spill: &'a Spill) -> &'a [u32] {
        let deg = self.degree();
        if deg <= INLINE {
            &self.0[1..=deg]
        } else {
            &spill.lists[self.0[1] as usize]
        }
    }

    fn list_mut<'a>(&'a mut self, spill: &'a mut Spill) -> &'a mut [u32] {
        let deg = self.degree();
        if deg <= INLINE {
            &mut self.0[1..=deg]
        } else {
            &mut spill.lists[self.0[1] as usize]
        }
    }

    /// Inserts `v` into node `u`'s sorted list.
    fn insert(&mut self, spill: &mut Spill, u: u32, v: u32) {
        assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
        let deg = self.degree();
        if deg < INLINE {
            let pos = match self.0[1..=deg].binary_search(&v) {
                Ok(_) => already_present(u, v),
                Err(pos) => pos,
            };
            self.0.copy_within(1 + pos..=deg, 2 + pos);
            self.0[1 + pos] = v;
        } else {
            if deg == INLINE {
                self.spill_out(spill);
            }
            let list = &mut spill.lists[self.0[1] as usize];
            match list.binary_search(&v) {
                Ok(_) => already_present(u, v),
                Err(pos) => list.insert(pos, v),
            }
        }
        self.0[0] += 1;
    }

    /// Removes `v` from node `u`'s sorted list.
    fn remove(&mut self, spill: &mut Spill, u: u32, v: u32) {
        let deg = self.degree();
        if deg <= INLINE {
            let pos = self.0[1..=deg]
                .binary_search(&v)
                .unwrap_or_else(|_| not_present(u, v));
            self.0.copy_within(2 + pos..=deg, 1 + pos);
        } else {
            let id = self.0[1];
            let list = &mut spill.lists[id as usize];
            let pos = list.binary_search(&v).unwrap_or_else(|_| not_present(u, v));
            list.remove(pos);
            if deg == INLINE + 1 {
                self.0[1..].copy_from_slice(list);
                spill.release(id);
            }
        }
        self.0[0] -= 1;
    }

    /// Appends `v` to node `u`'s list, unsorted — the bulk load's push;
    /// [`Slot::sort`] restores the order.
    fn push(&mut self, spill: &mut Spill, u: u32, v: u32) {
        assert_ne!(u, v, "self-loop ({u}, {v}) in delta");
        let deg = self.degree();
        if deg < INLINE {
            self.0[1 + deg] = v;
        } else {
            if deg == INLINE {
                self.spill_out(spill);
            }
            spill.lists[self.0[1] as usize].push(v);
        }
        self.0[0] += 1;
    }

    /// Sorts node `u`'s list after bulk pushes, rejecting duplicates.
    fn sort(&mut self, spill: &mut Spill, u: u32) {
        let list = self.list_mut(spill);
        list.sort_unstable();
        if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
            already_present(w[0].min(u), w[0].max(u));
        }
    }

    /// Moves the 7 inline neighbours into a pooled spill list.
    fn spill_out(&mut self, spill: &mut Spill) {
        let id = spill.take();
        spill.lists[id as usize].extend_from_slice(&self.0[1..]);
        self.0[1] = id;
    }
}

#[cold]
fn already_present(u: u32, v: u32) -> ! {
    panic!("delta added edge ({u}, {v}) that is already present")
}

#[cold]
fn not_present(u: u32, v: u32) -> ! {
    panic!("delta removed edge ({u}, {v}) that is not present")
}

/// One block's spill lists: the neighbour lists of its nodes of degree
/// above 7, by id. Released lists keep their capacity on the free list,
/// so a block's spill memory is allocated once per high-water mark.
#[derive(Debug, Clone, Default)]
struct Spill {
    lists: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Spill {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.lists.push(Vec::new());
            (self.lists.len() - 1) as u32
        })
    }

    fn release(&mut self, id: u32) {
        self.lists[id as usize].clear();
        self.free.push(id);
    }

    /// Frees every list, keeping its capacity.
    fn reset(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        self.free.clear();
        self.free.extend((0..self.lists.len() as u32).rev());
    }
}

/// An incremental adjacency structure over a fixed vertex set `[n]`.
///
/// # Layout
///
/// One flat slab with a 32-byte slot per node: the degree and up to 7
/// sorted neighbours inline. A node of degree 8 or more keeps its sorted
/// list in a spill list owned by its block of 1024 nodes; removals that
/// bring it back to 7 move the list inline again and return the spill
/// list, capacity kept, to the block's pool. Reading a node of degree
/// at most 7 — nearly every node of the paper's sparse regimes — touches
/// one cache line.
///
/// # Applying a delta
///
/// [`DynAdjacency::apply`] counting-sorts the delta's half-edges by
/// block, then applies each block's removals and then its additions, so
/// each 32 KiB stretch of the slab stays hot while it is written. Each
/// half-edge costs a binary search in its (short) sorted list plus a
/// shift of the entries after it: `O(churn · deg)` in the worst case,
/// `O(churn)` for the bounded degrees of sparse models. A full emission
/// into an edgeless adjacency — every trial's first delta — pushes
/// unsorted and sorts each touched block's lists once. Up to 32 blocks
/// (`n <= 32768`, a 1 MiB slab that stays cache-resident) the delta is
/// applied directly, without bucketing. Above that, the sharded engine
/// applies the same bucketed half-edges with one thread per contiguous
/// run of blocks, through the same body.
///
/// Neighbour lists are always sorted, so every query — and the lazily
/// materialized CSR [`Snapshot`], byte-identical to
/// [`Snapshot::rebuild_from_edges`] over the same edge set — depends
/// only on the edge set, never on the order the edges arrived in.
/// [`DynAdjacency::snapshot`] builds it only when asked.
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
    slots: Vec<Slot>,
    /// One per block of [`BLOCK`] nodes.
    spills: Vec<Spill>,
    edge_count: usize,
    /// Bucketing scratch: the last delta's half-edges grouped by block
    /// (never shrunk, so steady-state rounds do not allocate).
    halves: Vec<Edge>,
    /// Bucket bounds into `halves`: block `b`'s removals are
    /// `offsets[2b]..offsets[2b + 1]`, its additions run to
    /// `offsets[2b + 2]`.
    offsets: Vec<usize>,
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
        let mut adj = DynAdjacency {
            slots: Vec::new(),
            spills: Vec::new(),
            edge_count: 0,
            halves: Vec::new(),
            offsets: Vec::new(),
            csr: Snapshot::empty(n),
            csr_dirty: false,
        };
        adj.reset(n);
        adj
    }

    /// Clears every edge and re-targets the structure at a (possibly
    /// different) vertex set `[n]` — the trial-reuse counterpart of
    /// [`DynAdjacency::new`]. The slab, the spill lists and the bucketing
    /// scratch keep their capacity, so a worker running many trials over
    /// same-sized models allocates adjacency memory once and never again.
    pub fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, Slot::default());
        let blocks = n.div_ceil(BLOCK);
        self.spills.truncate(blocks);
        for spill in &mut self.spills {
            spill.reset();
        }
        self.spills.resize_with(blocks, Spill::default);
        self.edge_count = 0;
        if self.csr.node_count() != n {
            self.csr = Snapshot::empty(n);
        }
        self.csr_dirty = true;
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.slots.len()
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
        self.slots[u as usize].degree()
    }

    /// Sorted adjacency list of `u` — identical to what the materialized
    /// snapshot's [`Snapshot::neighbors`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        self.slots[u as usize].list(&self.spills[(u >> BLOCK_SHIFT) as usize])
    }

    /// `true` if edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if (u as usize) >= self.node_count() || (v as usize) >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over the current undirected edges `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    fn node_mut(&mut self, u: u32) -> (&mut Slot, &mut Spill) {
        (
            &mut self.slots[u as usize],
            &mut self.spills[(u >> BLOCK_SHIFT) as usize],
        )
    }

    /// Inserts edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or if the edge is
    /// already present — a delta stream that double-adds is out of sync
    /// with this adjacency, and failing loudly beats silent corruption.
    pub fn insert_edge(&mut self, u: u32, v: u32) {
        let (slot, spill) = self.node_mut(u);
        slot.insert(spill, u, v);
        let (slot, spill) = self.node_mut(v);
        slot.insert(spill, v, u);
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
        let (slot, spill) = self.node_mut(u);
        slot.remove(spill, u, v);
        let (slot, spill) = self.node_mut(v);
        slot.remove(spill, v, u);
        self.edge_count -= 1;
        self.csr_dirty = true;
    }

    /// Applies one round's churn: removals first, then additions.
    ///
    /// A full emission into an edgeless adjacency — every trial's first
    /// delta — takes a bulk-load fast path: unsorted pushes, then one
    /// sort per list, instead of one sorted insert per half-edge. The
    /// resulting structure is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the delta is inconsistent with the current edge set
    /// (see [`DynAdjacency::insert_edge`] / [`DynAdjacency::remove_edge`]).
    pub fn apply(&mut self, delta: &EdgeDelta) {
        self.apply_with(delta, 1, |parts| parts.into_iter().for_each(BlockPart::run));
    }

    /// The one apply body behind [`DynAdjacency::apply`] and the sharded
    /// engine's partitioned apply: splits the adjacency into at most
    /// `threads` [`BlockPart`]s — disjoint, contiguous runs of blocks
    /// with balanced half-edge counts — hands them to `run`, which must
    /// call [`BlockPart::run`] on each (in any order, on any threads),
    /// then restores the edge count and invalidates the snapshot.
    pub(crate) fn apply_with(
        &mut self,
        delta: &EdgeDelta,
        threads: usize,
        run: impl FnOnce(Vec<BlockPart<'_>>),
    ) {
        if delta.is_empty() {
            return;
        }
        let bulk = self.edge_count == 0 && delta.removed().is_empty();
        let DynAdjacency {
            slots,
            spills,
            halves,
            offsets,
            ..
        } = self;
        let blocks = spills.len();
        let mut parts = Vec::new();
        if blocks <= DIRECT_BLOCKS {
            parts.push(BlockPart {
                first_block: 0,
                slots,
                spills,
                halves: Halves::Direct(delta),
                bulk,
            });
        } else {
            bucket_halves(delta, blocks, halves, offsets);
            let (halves, offsets) = (&halves[..], &offsets[..]);
            let total = offsets[2 * blocks];
            let threads = threads.max(1);
            let (mut slots, mut spills) = (&mut slots[..], &mut spills[..]);
            let mut first = 0;
            for t in 1..=threads {
                let mut end = first;
                while end < blocks && (t == threads || offsets[2 * end] * threads < total * t) {
                    end += 1;
                }
                if end == first {
                    continue;
                }
                let nodes = ((end - first) * BLOCK).min(slots.len());
                let (part_slots, rest) = std::mem::take(&mut slots).split_at_mut(nodes);
                slots = rest;
                let (part_spills, rest) = std::mem::take(&mut spills).split_at_mut(end - first);
                spills = rest;
                parts.push(BlockPart {
                    first_block: first,
                    slots: part_slots,
                    spills: part_spills,
                    halves: Halves::Bucketed { halves, offsets },
                    bulk,
                });
                first = end;
            }
        }
        run(parts);
        self.edge_count = self.edge_count + delta.added().len() - delta.removed().len();
        self.csr_dirty = true;
    }

    /// Removes every edge (cheaper than re-allocating for a new run over
    /// the same vertex set).
    pub fn clear(&mut self) {
        self.reset(self.node_count());
    }

    /// The current edge set as a CSR [`Snapshot`], materialized lazily:
    /// the rebuild runs only when edges changed since the last call.
    ///
    /// The result is byte-identical to
    /// [`Snapshot::rebuild_from_edges`] over [`DynAdjacency::edges`].
    pub fn snapshot(&mut self) -> &Snapshot {
        if self.csr_dirty {
            let DynAdjacency {
                slots, spills, csr, ..
            } = self;
            csr.rebuild_from_sorted_adjacency(
                slots
                    .iter()
                    .enumerate()
                    .map(|(u, slot)| slot.list(&spills[u >> BLOCK_SHIFT])),
            );
            self.csr_dirty = false;
        }
        &self.csr
    }
}

/// Counting-sorts `delta`'s half-edges by block into `halves`: for each
/// block `b`, first the halves `(u, v)` of removed edges with `u` in `b`,
/// then those of added edges, each in delta order. Fills `offsets` with
/// the bucket bounds (see `DynAdjacency::offsets`). An endpoint beyond
/// the last block panics here; one inside it but `>= n` panics in
/// [`BlockPart::run`].
fn bucket_halves(
    delta: &EdgeDelta,
    blocks: usize,
    halves: &mut Vec<Edge>,
    offsets: &mut Vec<usize>,
) {
    let block = |u: u32| (u >> BLOCK_SHIFT) as usize;
    // Count bucket k at offsets[k + 1]; removals are k = 2b, additions
    // k = 2b + 1.
    offsets.clear();
    offsets.resize(2 * blocks + 1, 0);
    for &(u, v) in delta.removed() {
        offsets[2 * block(u) + 1] += 1;
        offsets[2 * block(v) + 1] += 1;
    }
    for &(u, v) in delta.added() {
        offsets[2 * block(u) + 2] += 1;
        offsets[2 * block(v) + 2] += 1;
    }
    for k in 1..offsets.len() {
        offsets[k] += offsets[k - 1];
    }
    let total = offsets[2 * blocks];
    if halves.len() < total {
        halves.resize(total, (0, 0));
    }
    // offsets[k] is now bucket k's start; use it as the write cursor.
    let mut put = |k: usize, half: Edge| {
        halves[offsets[k]] = half;
        offsets[k] += 1;
    };
    for &(u, v) in delta.removed() {
        put(2 * block(u), (u, v));
        put(2 * block(v), (v, u));
    }
    for &(u, v) in delta.added() {
        put(2 * block(u) + 1, (u, v));
        put(2 * block(v) + 1, (v, u));
    }
    // Each cursor ended at its bucket's end, i.e. the next one's start.
    offsets.rotate_right(1);
    offsets[0] = 0;
}

/// Where a [`BlockPart`] reads its half-edges.
#[derive(Clone, Copy)]
enum Halves<'a> {
    /// The delta itself: the adjacency has at most [`DIRECT_BLOCKS`] blocks.
    Direct(&'a EdgeDelta),
    /// Counting-sorted by block, see [`bucket_halves`].
    Bucketed {
        halves: &'a [Edge],
        offsets: &'a [usize],
    },
}

/// A disjoint, contiguous run of blocks of a [`DynAdjacency`] together
/// with the half-edges of one delta that land in it — the unit of work of
/// [`DynAdjacency::apply`]. It mutates only its own blocks' slots and
/// spill lists, so parts of one delta can run on different threads with
/// no synchronization.
pub(crate) struct BlockPart<'a> {
    first_block: usize,
    slots: &'a mut [Slot],
    spills: &'a mut [Spill],
    halves: Halves<'a>,
    bulk: bool,
}

impl BlockPart<'_> {
    /// Applies this part's half-edges: each block's removals, then its
    /// additions (pushed unsorted and sorted per block on a bulk load).
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints and delta entries
    /// inconsistent with the current edge set (see
    /// [`DynAdjacency::apply`]).
    pub(crate) fn run(mut self) {
        match self.halves {
            Halves::Direct(delta) => {
                self.apply_halves(delta.removed(), delta.added(), true);
                if self.bulk {
                    self.sort_nodes(0..self.slots.len());
                }
            }
            Halves::Bucketed { halves, offsets } => {
                for b in 0..self.spills.len() {
                    let k = 2 * (self.first_block + b);
                    let added = &halves[offsets[k + 1]..offsets[k + 2]];
                    self.apply_halves(&halves[offsets[k]..offsets[k + 1]], added, false);
                    if self.bulk && !added.is_empty() {
                        let start = b * BLOCK;
                        self.sort_nodes(start..(start + BLOCK).min(self.slots.len()));
                    }
                }
            }
        }
    }

    /// Applies `removed` then `added` (pushes them on a bulk load); with
    /// `mirrored`, each entry is an edge standing for both its halves.
    fn apply_halves(&mut self, removed: &[Edge], added: &[Edge], mirrored: bool) {
        if self.bulk {
            self.for_each_half(added, mirrored, Slot::push);
        } else {
            self.for_each_half(removed, mirrored, Slot::remove);
            self.for_each_half(added, mirrored, Slot::insert);
        }
    }

    fn for_each_half(
        &mut self,
        halves: &[Edge],
        mirrored: bool,
        op: impl Fn(&mut Slot, &mut Spill, u32, u32),
    ) {
        for &(u, v) in halves {
            let (slot, spill) = self.node_mut(u);
            op(slot, spill, u, v);
            if mirrored {
                let (slot, spill) = self.node_mut(v);
                op(slot, spill, v, u);
            }
        }
    }

    #[inline]
    fn node_mut(&mut self, u: u32) -> (&mut Slot, &mut Spill) {
        (
            &mut self.slots[u as usize - self.first_block * BLOCK],
            &mut self.spills[(u >> BLOCK_SHIFT) as usize - self.first_block],
        )
    }

    /// Sorts the lists of the part-local nodes `local` after bulk pushes.
    fn sort_nodes(&mut self, local: std::ops::Range<usize>) {
        let base = self.first_block * BLOCK;
        for i in local {
            let slot = &mut self.slots[i];
            if slot.degree() >= 2 {
                slot.sort(&mut self.spills[i >> BLOCK_SHIFT], (base + i) as u32);
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
