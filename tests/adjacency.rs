//! Differential test of the flat-slab `DynAdjacency` against a `BTreeSet`
//! reference: random deltas, every query compared after every round.
//!
//! `n = 40` is a single block whose degrees cross the inline/spill
//! boundary (7 inline neighbours) in both directions; `n = 3000` spans
//! three blocks of 1024 nodes, the last one partial, applied directly;
//! `n = 40_000` spans 40 blocks, more than the 32 applied directly, so
//! the block-bucketed apply runs. One structure is reset between the
//! sizes and reused, as trial scratch is. CI runs this file in release
//! mode, where it takes more rounds.

use std::collections::BTreeSet;

use dynspread::dynagraph::{DynAdjacency, EdgeDelta, Snapshot};

/// Rounds per size; release builds afford ten times as many.
const ROUNDS: usize = if cfg!(debug_assertions) { 48 } else { 480 };

/// SplitMix64: a self-contained stream for the random deltas.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    fn pair(&mut self, n: usize) -> (u32, u32) {
        loop {
            let (a, b) = (self.below(n) as u32, self.below(n) as u32);
            if a != b {
                return (a.min(b), a.max(b));
            }
        }
    }
}

/// Compares every query of `adj` against the reference edge set.
fn check(adj: &mut DynAdjacency, n: usize, reference: &BTreeSet<(u32, u32)>, stream: &mut Stream) {
    assert_eq!(adj.node_count(), n);
    assert_eq!(adj.edge_count(), reference.len());
    assert_eq!(adj.is_edgeless(), reference.is_empty());
    let mut lists = vec![Vec::new(); n];
    for &(u, v) in reference {
        lists[u as usize].push(v);
        lists[v as usize].push(u);
    }
    for (u, list) in lists.iter_mut().enumerate() {
        list.sort_unstable();
        assert_eq!(adj.neighbors(u as u32), &list[..], "neighbors({u})");
        assert_eq!(adj.degree(u as u32), list.len(), "degree({u})");
    }
    for &(u, v) in reference {
        assert!(
            adj.has_edge(u, v) && adj.has_edge(v, u),
            "has_edge({u}, {v})"
        );
    }
    for _ in 0..n {
        let (u, v) = stream.pair(n);
        assert_eq!(adj.has_edge(u, v), reference.contains(&(u, v)));
    }
    assert!(!adj.has_edge(0, n as u32), "out of range is absent");
    assert!(adj.edges().eq(reference.iter().copied()), "edges()");
    let edges: Vec<_> = reference.iter().copied().collect();
    let mut expected = Snapshot::empty(n);
    expected.rebuild_from_edges(&edges);
    assert_eq!(adj.snapshot(), &expected, "snapshot()");
}

/// Re-targets `adj` at `n` nodes and drives it with random deltas: a full
/// emission first, then rounds alternating between a dense phase (`dense`
/// additions per round, 5% removals) and a sparse one (`dense / 10`
/// additions, half the edges removed) every 6 rounds, with a same-size
/// reset half-way. Returns how often a node's degree fell from 8 or more
/// to 7 or less.
fn drive(adj: &mut DynAdjacency, n: usize, dense: usize, rounds: usize, seed: u64) -> usize {
    let mut stream = Stream(seed);
    let mut reference = BTreeSet::new();
    let mut delta = EdgeDelta::new();
    let mut unspills = 0;
    adj.reset(n);
    for round in 0..rounds {
        if round == rounds / 2 {
            // Trial reuse at the same size: a reset, then a full emission.
            adj.reset(n);
            reference.clear();
        }
        delta.begin_round();
        if reference.is_empty() {
            while reference.len() < dense {
                let e = stream.pair(n);
                if reference.insert(e) {
                    delta.push_added(e);
                }
            }
        } else {
            let dense_phase = (round / 6) % 2 == 0;
            let (adds, q) = if dense_phase {
                (dense, 0.05)
            } else {
                (dense / 10, 0.5)
            };
            let removed: Vec<_> = reference
                .iter()
                .copied()
                .filter(|_| stream.chance(q))
                .collect();
            for &e in &removed {
                reference.remove(&e);
                delta.push_removed(e);
            }
            for _ in 0..adds {
                // A removed edge may come straight back in the same delta.
                let e = if !removed.is_empty() && stream.chance(0.05) {
                    removed[stream.below(removed.len())]
                } else {
                    stream.pair(n)
                };
                if reference.insert(e) {
                    delta.push_added(e);
                }
            }
        }
        let before: Vec<usize> = (0..n as u32).map(|u| adj.degree(u)).collect();
        adj.apply(&delta);
        unspills += (0..n as u32)
            .filter(|&u| before[u as usize] > 7 && adj.degree(u) <= 7)
            .count();
        check(adj, n, &reference, &mut stream);
    }
    unspills
}

#[test]
fn slab_matches_reference_across_spills_blocks_and_resets() {
    let mut adj = DynAdjacency::default();
    let small = drive(&mut adj, 40, 60, ROUNDS, 1);
    assert!(small > 0, "n = 40 never left the spill lists");
    let blocks = drive(&mut adj, 3000, 6000, ROUNDS, 2);
    assert!(blocks > 0, "n = 3000 never left the spill lists");
    // The largest size is the slowest to check: a quarter of the rounds.
    let bucketed = drive(&mut adj, 40_000, 30_000, ROUNDS / 4, 3);
    assert!(bucketed > 0, "n = 40 000 never left the spill lists");
    // Back to the small size: the pooled spill lists are reused.
    drive(&mut adj, 40, 60, ROUNDS, 4);
}

/// `n` nodes with node `hub` of degree 10: its list lives in a spill list.
fn spilled(n: usize, hub: u32) -> DynAdjacency {
    let mut adj = DynAdjacency::new(n);
    let mut d = EdgeDelta::new();
    d.record_full((1..=10).map(|k| (hub, hub + k)));
    adj.apply(&d);
    assert_eq!(adj.degree(hub), 10);
    adj
}

fn apply_one(adj: &mut DynAdjacency, removed: Option<(u32, u32)>, added: Option<(u32, u32)>) {
    let mut d = EdgeDelta::new();
    d.begin_round();
    removed.into_iter().for_each(|e| d.push_removed(e));
    added.into_iter().for_each(|e| d.push_added(e));
    adj.apply(&d);
}

#[test]
#[should_panic(expected = "already present")]
fn double_add_on_a_spilled_list_panics() {
    let mut adj = spilled(40, 20);
    apply_one(&mut adj, None, Some((20, 25)));
}

#[test]
#[should_panic(expected = "not present")]
fn phantom_remove_on_a_spilled_list_panics() {
    let mut adj = spilled(40, 20);
    apply_one(&mut adj, Some((20, 35)), None);
}

#[test]
#[should_panic(expected = "already present")]
fn double_add_on_a_spilled_list_panics_in_the_bucketed_apply() {
    let mut adj = spilled(40_000, 2040);
    apply_one(&mut adj, None, Some((2040, 2045)));
}

#[test]
#[should_panic(expected = "not present")]
fn phantom_remove_on_a_spilled_list_panics_in_the_bucketed_apply() {
    let mut adj = spilled(40_000, 2040);
    apply_one(&mut adj, Some((2040, 39_999)), None);
}
