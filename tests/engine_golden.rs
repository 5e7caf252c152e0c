//! Golden engine records: what every round loop produced, frozen as
//! data.
//!
//! `tests/golden/engine_records.txt` stores, for every model family in
//! the workspace, the engine's [`TrialRecord`]s across the protocol ×
//! stepping branch × shard count × model-reuse product, plus digests
//! (`informed_at` and `sizes`) of the single-run entry points. Each
//! family runs twice: as built (its native deltas drive the delta
//! branch) and behind [`HideDeltas`] (the snapshot branch). The stored
//! file is the reference the executors are pinned against, so a change
//! to any round loop that moves a single record fails here.
//!
//! The golden file replaced the independent single-run loops the engine
//! used to be compared against (`gossip::push_spread`,
//! `gossip::parsimonious_flood`, the two sweeps of `flooding::flood`):
//! their outputs are stored here, and [`oracle_flood`] — a naive
//! full-edge-scan flood sharing no code with the engine — is the live
//! reference for flooding on every model family.
//!
//! `tests/golden/model_realizations.txt` freezes the models themselves:
//! for every native family, and for a few cases the `N = 48` corpus
//! cannot reach, FNV fingerprints of the `step` sequence and of a
//! `step_delta` sequence that rebases once mid-run and resets a used
//! instance. A change to a model's transition that moves one edge, or
//! the order edges are emitted in, fails there.
//!
//! Regenerate both with
//! `cargo test -q --test engine_golden -- --ignored regenerate`;
//! the diff must be empty unless a change is a deliberate re-pin.

use std::fmt::Write as _;

use dynspread::dg_edge_meg::{
    bursty_chain, HiddenChainEdgeMeg, ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg, TwoStateEdgeMeg,
};
use dynspread::dg_graph::generators;
use dynspread::dg_markov::DenseChain;
use dynspread::dg_mobility::{GeometricMeg, PathFamily, RandomPathModel, RandomWaypoint};
use dynspread::dynagraph::engine::{
    Flooding, Observer, ParsimoniousFlooding, Protocol, PushGossip, RoundCtx, Simulation,
    TrialRecord,
};
use dynspread::dynagraph::flooding::{flood, flood_multi, flood_sharded, FloodRun};
use dynspread::dynagraph::node_meg::{FiniteNodeChain, MatrixConnection, NodeMeg};
use dynspread::dynagraph::{
    mix_seed, EdgeDelta, EvolvingGraph, HideDeltas, JammedEvolvingGraph, PeriodicEvolvingGraph,
    Shards, StaticEvolvingGraph, ThinnedEvolvingGraph,
};

const BASE_SEED: u64 = 0x0060_1DE4;
const DIRECT_BASE_SEED: u64 = 0x00D1_2EC7;
const TRIALS: usize = 2;
const WARM_UP: usize = 3;
const MAX_ROUNDS: u32 = 1_000;
const N: usize = 48;

/// Streaming FNV-1a over the little-endian bytes of `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an edge list in order, terminated by its length.
    fn edges(&mut self, edges: impl IntoIterator<Item = (u32, u32)>) {
        let mut count = 0;
        for (u, v) in edges {
            self.word(u);
            self.word(v);
            count += 1;
        }
        self.word(count);
    }
}

/// FNV-1a over the little-endian bytes of a `u32` slice.
fn fnv(values: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for &v in values {
        h.word(v);
    }
    h.0
}

fn opt(t: Option<u32>) -> String {
    t.map_or_else(|| "-".to_string(), |t| t.to_string())
}

fn record_text(r: &TrialRecord) -> String {
    format!(
        "{}:{:016x} time={} informed={} rounds={} messages={}",
        r.trial,
        r.seed,
        opt(r.time),
        r.informed,
        r.rounds,
        r.messages
    )
}

fn digest_text(time: Option<u32>, informed_at: &[u32], sizes: &[u32]) -> String {
    format!(
        "time={} rounds={} informed={} sizes={:016x} informed_at={:016x}",
        opt(time),
        sizes.len() - 1,
        sizes.last().expect("sizes starts with |I_0|"),
        fnv(sizes),
        fnv(informed_at)
    )
}

fn run_text(run: &FloodRun) -> String {
    digest_text(run.flooding_time(), run.informed_at(), run.sizes())
}

/// The `informed_at` and `sizes` of one engine trial, rebuilt from the
/// observer callbacks.
#[derive(Default)]
struct RunDigest {
    informed_at: Vec<u32>,
    sizes: Vec<u32>,
    time: Option<u32>,
}

impl Observer for RunDigest {
    fn on_trial_start(&mut self, _trial: usize, n: usize, sources: &[u32]) {
        self.informed_at = vec![FloodRun::UNINFORMED; n];
        for &s in sources {
            self.informed_at[s as usize] = 0;
        }
        self.sizes = vec![sources.len() as u32];
    }
    fn on_round(&mut self, ctx: &RoundCtx<'_>) {
        for &v in ctx.newly_informed {
            self.informed_at[v as usize] = ctx.round;
        }
        self.sizes.push(ctx.informed_count as u32);
    }
    fn on_trial_end(&mut self, record: &TrialRecord) {
        self.time = record.time;
    }
}

/// Digest of one engine trial — trial 0 under `DIRECT_BASE_SEED`, so the
/// model and protocol seeds are the single-run seed `direct_lines` uses.
fn engine_digest<G, F, P>(make: &F, protocol: P) -> String
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync + Clone,
    P: Protocol + Clone + Sync,
{
    let (_, digests) = Simulation::builder()
        .model(make.clone())
        .protocol(protocol)
        .trials(1)
        .warm_up(WARM_UP)
        .max_rounds(MAX_ROUNDS)
        .base_seed(DIRECT_BASE_SEED)
        .observers(|_| RunDigest::default())
        .run_observed();
    let d = &digests[0];
    digest_text(d.time, &d.informed_at, &d.sizes)
}

/// Engine records of one model × protocol over shards {1, 3} × model
/// reuse {on, off}.
fn engine_lines<G, F, P>(out: &mut String, label: &str, make: &F, protocol: P, name: &str)
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync + Clone,
    P: Protocol + Clone + Sync,
{
    for shards in [1usize, 3] {
        for reuse in [true, false] {
            let report = Simulation::builder()
                .model(make.clone())
                .protocol(protocol.clone())
                .trials(TRIALS)
                .warm_up(WARM_UP)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED)
                .parallel(false)
                .shards(shards)
                .reuse_models(reuse)
                .run();
            let records: Vec<String> = report.records().iter().map(record_text).collect();
            writeln!(
                out,
                "engine {label} {name} shards={shards} reuse={reuse} | {}",
                records.join(" | ")
            )
            .unwrap();
        }
    }
}

/// Digests of the single-run entry points on one realization, warmed
/// up like the engine warms its trials.
fn direct_lines<G, F>(out: &mut String, label: &str, make: &F)
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync + Clone,
{
    let seed = mix_seed(DIRECT_BASE_SEED, 0);
    let fresh = || {
        let mut g = make(seed);
        g.warm_up(WARM_UP);
        g
    };
    let n = fresh().node_count() as u32;
    let line = |out: &mut String, name: &str, text: String| {
        writeln!(out, "direct {label} {name} | {text}").unwrap();
    };
    line(out, "flood", run_text(&flood(&mut fresh(), 0, MAX_ROUNDS)));
    let sources = [0, n / 2, n - 1];
    line(
        out,
        "flood_multi",
        run_text(&flood_multi(&mut fresh(), &sources, MAX_ROUNDS)),
    );
    for shards in [1usize, 3] {
        let run = flood_sharded(&mut fresh(), 0, MAX_ROUNDS, Shards::Fixed(shards));
        line(out, &format!("flood_sharded/{shards}"), run_text(&run));
    }
    // The single-run push_spread and parsimonious_flood loops are gone;
    // the engine reproduces their outputs from the same seed.
    for fanout in [1usize, 2] {
        let digest = engine_digest(make, PushGossip::new(fanout));
        line(out, &format!("push_spread/{fanout}"), digest);
    }
    for ttl in [1u32, 3] {
        let digest = engine_digest(make, ParsimoniousFlooding::new(ttl));
        line(out, &format!("parsimonious_flood/{ttl}"), digest);
    }
}

fn family_lines_one<G, F>(out: &mut String, label: &str, make: F)
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync + Clone,
{
    engine_lines(out, label, &make, Flooding::new(), "flooding");
    for fanout in [1usize, 2] {
        let name = format!("push/{fanout}");
        engine_lines(out, label, &make, PushGossip::new(fanout), &name);
    }
    for ttl in [1u32, 3] {
        let name = format!("parsimonious/{ttl}");
        engine_lines(out, label, &make, ParsimoniousFlooding::new(ttl), &name);
    }
    direct_lines(out, label, &make);
}

/// One family, native and with its deltas hidden.
fn family_lines<G, F>(out: &mut String, family: &str, make: F)
where
    G: EvolvingGraph,
    F: Fn(u64) -> G + Sync + Clone,
{
    family_lines_one(out, &format!("{family}/native"), make.clone());
    family_lines_one(out, &format!("{family}/hidden"), move |seed| {
        HideDeltas(make(seed))
    });
}

fn two_state(seed: u64) -> TwoStateEdgeMeg {
    TwoStateEdgeMeg::stationary(N, 2.0 / N as f64, 0.3, seed).unwrap()
}

fn node_meg(seed: u64) -> NodeMeg<FiniteNodeChain, MatrixConnection> {
    let rows = vec![
        vec![0.8, 0.1, 0.1],
        vec![0.1, 0.8, 0.1],
        vec![0.1, 0.1, 0.8],
    ];
    let chain = FiniteNodeChain::uniform_start(DenseChain::from_rows(rows).unwrap());
    NodeMeg::new(chain, MatrixConnection::same_state(3), N, seed).unwrap()
}

/// A consumer of the model families, each given as a seeded factory.
trait Families {
    fn family<G, F>(&mut self, name: &str, make: F)
    where
        G: EvolvingGraph,
        F: Fn(u64) -> G + Sync + Clone;
}

/// Every model family of the workspace, in golden-file order.
fn visit_families(v: &mut impl Families) {
    v.family("static", |_| {
        StaticEvolvingGraph::new(generators::grid(6, 8))
    });
    let graphs = [
        generators::path(N),
        generators::cycle(N),
        generators::star(N),
    ];
    v.family("periodic", move |_| {
        PeriodicEvolvingGraph::new(&graphs).unwrap()
    });
    v.family("thinned", |seed| {
        ThinnedEvolvingGraph::new(two_state(seed), 0.6, seed).unwrap()
    });
    v.family("jammed", |seed| {
        JammedEvolvingGraph::new(two_state(seed), 3, seed).unwrap()
    });
    v.family("node-meg", node_meg);
    v.family("two-state", two_state);
    v.family("hidden-chain", |seed| {
        let (chain, chi) = bursty_chain(0.05, 0.3, 0.2);
        HiddenChainEdgeMeg::stationary(N, chain, chi, seed).unwrap()
    });
    v.family("exact-scan", |seed| {
        SparseTwoStateEdgeMeg::stationary(N, 1.5 / N as f64, 0.4, seed).unwrap()
    });
    v.family("sparse-init", |seed| {
        SparseTwoStateEdgeMeg::stationary_sparse_init(N, 1.5 / N as f64, 0.4, seed).unwrap()
    });
    v.family("sharded", |seed| {
        let n = 128;
        ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
    });
    v.family("waypoint", |seed| {
        GeometricMeg::new(RandomWaypoint::new(8.0, 1.0, 2.0).unwrap(), N, 1.5, seed).unwrap()
    });
    let (_, paths) = PathFamily::grid_l_paths(4, 4);
    v.family("random-paths", move |seed| {
        RandomPathModel::stationary_lazy(paths.clone(), N, 0.25, seed).unwrap()
    });
}

/// Collects the golden corpus.
struct Corpus(String);

impl Families for Corpus {
    fn family<G, F>(&mut self, name: &str, make: F)
    where
        G: EvolvingGraph,
        F: Fn(u64) -> G + Sync + Clone,
    {
        family_lines(&mut self.0, name, make);
    }
}

/// The whole golden corpus, in file order.
fn corpus() -> String {
    let mut corpus = Corpus(String::new());
    visit_families(&mut corpus);
    corpus.0
}

/// Rounds of each realization fingerprint over the corpus families.
const REALIZATION_ROUNDS: usize = 60;

/// Fingerprint of `rounds` snapshots: every edge set, in emission order.
fn step_fingerprint<G: EvolvingGraph>(g: &mut G, rounds: usize) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..rounds {
        h.edges(g.step().edges());
    }
    h.0
}

fn fold_deltas<G: EvolvingGraph>(g: &mut G, delta: &mut EdgeDelta, h: &mut Fnv, rounds: usize) {
    for _ in 0..rounds {
        g.step_delta(delta);
        h.edges(delta.added().iter().copied());
        h.edges(delta.removed().iter().copied());
    }
}

/// Fingerprint of a `step_delta` sequence that crosses both resync
/// points of the delta contract: `rounds` deltas with one
/// `rebase_deltas` half-way, then `rounds` more after resetting the
/// used instance to `reset_seed`.
fn delta_fingerprint<G: EvolvingGraph>(g: &mut G, reset_seed: u64, rounds: usize) -> u64 {
    let mut h = Fnv::new();
    let mut delta = EdgeDelta::new();
    fold_deltas(g, &mut delta, &mut h, rounds / 2);
    g.rebase_deltas();
    fold_deltas(g, &mut delta, &mut h, rounds - rounds / 2);
    g.reset(reset_seed);
    fold_deltas(g, &mut delta, &mut h, rounds);
    h.0
}

/// Collects the per-model realization fingerprints.
struct Realizations {
    out: String,
    rounds: usize,
}

impl Families for Realizations {
    fn family<G, F>(&mut self, name: &str, make: F)
    where
        G: EvolvingGraph,
        F: Fn(u64) -> G + Sync + Clone,
    {
        let seed = mix_seed(DIRECT_BASE_SEED, 0);
        let step = step_fingerprint(&mut make(seed), self.rounds);
        let delta = delta_fingerprint(&mut make(seed), mix_seed(DIRECT_BASE_SEED, 1), self.rounds);
        writeln!(
            self.out,
            "realization {name} rounds={} step={step:016x} delta={delta:016x}",
            self.rounds
        )
        .unwrap();
    }
}

/// Every native family's realization, then the cases the corpus cannot
/// reach, in file order.
fn realizations() -> String {
    let mut r = Realizations {
        out: String::new(),
        rounds: REALIZATION_ROUNDS,
    };
    visit_families(&mut r);
    // Pair indices past u32::MAX: ~14% of the pair space at n = 100 000.
    r.rounds = 20;
    r.family("sparse-init/u64-pairs", |seed| {
        SparseTwoStateEdgeMeg::stationary_sparse_init(100_000, 3e-8, 0.3, seed).unwrap()
    });
    // p = q = 1e-4: toggles land far past the calendar horizon (overflow
    // flushes) and births far in the future.
    r.rounds = 30_000;
    r.family("exact-scan/far-future", |seed| {
        SparseTwoStateEdgeMeg::stationary(24, 1e-4, 1e-4, seed).unwrap()
    });
    r.family("sparse-init/far-future", |seed| {
        SparseTwoStateEdgeMeg::stationary_sparse_init(24, 1e-4, 1e-4, seed).unwrap()
    });
    // Many nodes per lane, so every lane range is long and non-empty.
    r.rounds = REALIZATION_ROUNDS;
    r.family("sharded/n5000", |seed| {
        let n = 5_000;
        ShardedSparseEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
    });
    r.out
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Compares `current` with the stored golden file line by line.
fn assert_matches_golden(file: &str, current: &str) {
    let stored = std::fs::read_to_string(golden_path(file)).expect("golden file present");
    for (i, (want, got)) in stored.lines().zip(current.lines()).enumerate() {
        assert_eq!(got, want, "{file} line {} drifted", i + 1);
    }
    assert_eq!(
        current.lines().count(),
        stored.lines().count(),
        "{file} changed length"
    );
}

fn write_golden(file: &str, contents: &str) {
    let path = golden_path(file);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, contents).unwrap();
}

#[test]
fn engine_records_match_golden() {
    assert_matches_golden("engine_records.txt", &corpus());
}

#[test]
fn model_realizations_match_golden() {
    assert_matches_golden("model_realizations.txt", &realizations());
}

/// Writes the golden file. Only a deliberate re-pin may change it; a
/// refactor of the round loop must regenerate it to an empty diff.
#[test]
#[ignore = "writes tests/golden/engine_records.txt; run manually to (re)produce it"]
fn regenerate_engine_records() {
    write_golden("engine_records.txt", &corpus());
}

/// Writes the realization file. Only a deliberate re-pin may change it;
/// a refactor of a model must regenerate it to an empty diff.
#[test]
#[ignore = "writes tests/golden/model_realizations.txt; run manually to (re)produce it"]
fn regenerate_model_realizations() {
    write_golden("model_realizations.txt", &realizations());
}

/// What the naive reference reports for one flooding run.
#[derive(Debug, PartialEq, Eq)]
struct OracleRun {
    time: Option<u32>,
    rounds: u32,
    informed: usize,
    messages: u64,
}

/// The naive flooding reference: each round scans the full edge set of
/// `g.step()`. A node joins `I_{t+1}` iff an edge links it to `I_t`, and
/// every informed endpoint sends one message over each of its edges, so
/// a round costs `Σ_{u ∈ I_t} deg(u)` messages. Shares no code with the
/// engine; it is the differential oracle for every model family.
fn oracle_flood<G: EvolvingGraph>(g: &mut G, source: u32, max_rounds: u32) -> OracleRun {
    let n = g.node_count();
    let mut informed = vec![false; n];
    informed[source as usize] = true;
    let mut count = 1;
    let mut messages = 0;
    let mut rounds = 0;
    let mut time = (n == 1).then_some(0);
    let mut reached = Vec::new();
    while time.is_none() && rounds < max_rounds {
        reached.clear();
        for (u, v) in g.step().edges() {
            let (iu, iv) = (informed[u as usize], informed[v as usize]);
            messages += iu as u64 + iv as u64;
            if iu && !iv {
                reached.push(v);
            }
            if iv && !iu {
                reached.push(u);
            }
        }
        for &v in &reached {
            if !informed[v as usize] {
                informed[v as usize] = true;
                count += 1;
            }
        }
        rounds += 1;
        if count == n {
            time = Some(rounds);
        }
    }
    OracleRun {
        time,
        rounds,
        informed: count,
        messages,
    }
}

/// Checks engine flooding records against the oracle on the same
/// realizations, on the snapshot, delta and lane-stepping reads.
struct OracleCheck;

impl OracleCheck {
    fn check<G, F>(label: &str, make: F)
    where
        G: EvolvingGraph,
        F: Fn(u64) -> G + Sync + Clone,
    {
        for shards in [1usize, 3] {
            let report = Simulation::builder()
                .model(make.clone())
                .trials(3)
                .warm_up(WARM_UP)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED ^ 0x0AC1)
                .shards(shards)
                .run();
            for rec in report.records() {
                let mut g = make(rec.seed);
                g.warm_up(WARM_UP);
                let engine = OracleRun {
                    time: rec.time,
                    rounds: rec.rounds,
                    informed: rec.informed,
                    messages: rec.messages,
                };
                let oracle = oracle_flood(&mut g, 0, MAX_ROUNDS);
                assert_eq!(
                    engine, oracle,
                    "{label} shards={shards} trial {}",
                    rec.trial
                );
            }
        }
    }
}

impl Families for OracleCheck {
    fn family<G, F>(&mut self, name: &str, make: F)
    where
        G: EvolvingGraph,
        F: Fn(u64) -> G + Sync + Clone,
    {
        Self::check(&format!("{name}/native"), make.clone());
        Self::check(&format!("{name}/hidden"), move |seed| {
            HideDeltas(make(seed))
        });
    }
}

#[test]
fn engine_flooding_matches_naive_oracle_on_every_family() {
    visit_families(&mut OracleCheck);
}
