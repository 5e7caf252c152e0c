//! Integration: the unified engine's contracts.
//!
//! * determinism — same configuration ⇒ identical reports across runs,
//!   and parallel execution is byte-identical to serial;
//! * read-branch equivalence — a model's native deltas and its snapshots
//!   (deltas hidden behind `HideDeltas`) yield byte-identical records for
//!   every built-in protocol;
//! * the single-run primitives (`flooding::flood`, `flood_multi`) report
//!   what the builder reports, and reject invalid caps;
//! * observers stream what the run records say.
//!
//! The frozen outputs of the removed legacy loops live in
//! `engine_golden.rs`.

use dynspread::dg_edge_meg::{SparseTwoStateEdgeMeg, TwoStateEdgeMeg};
use dynspread::dg_graph::generators;
use dynspread::dynagraph::engine::{
    DelayObserver, MeanGrowthObserver, Observer, ParsimoniousFlooding, PushGossip, RoundCtx,
    Simulation,
};
use dynspread::dynagraph::flooding::{flood, flood_multi};
use dynspread::dynagraph::{mix_seed, EvolvingGraph, HideDeltas, StaticEvolvingGraph};

const BASE_SEED: u64 = 0xE16;
const TRIALS: usize = 12;
const MAX_ROUNDS: u32 = 200_000;

fn sparse_meg(seed: u64) -> SparseTwoStateEdgeMeg {
    let n = 96;
    SparseTwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap()
}

fn static_grid(_seed: u64) -> StaticEvolvingGraph {
    StaticEvolvingGraph::new(generators::grid(6, 6))
}

/// The same factory with native deltas hidden: the snapshot branch.
fn hidden<G: EvolvingGraph>(
    make: impl Fn(u64) -> G + Copy,
) -> impl Fn(u64) -> HideDeltas<G> + Copy {
    move |seed| HideDeltas(make(seed))
}

#[test]
fn parallel_and_serial_reports_are_byte_identical() {
    let run = |parallel: bool| {
        Simulation::builder()
            .model(sparse_meg)
            .protocol(PushGossip::new(2))
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .parallel(parallel)
            .run()
    };
    let par = run(true);
    let ser = run(false);
    assert_eq!(par, ser);
    // Byte-identical summaries, not just semantically equal ones.
    assert_eq!(format!("{par:?}"), format!("{ser:?}"));
}

#[test]
fn same_configuration_is_reproducible_across_runs() {
    let run = || {
        Simulation::builder()
            .model(sparse_meg)
            .trials(TRIALS)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(a.incomplete(), 0);
    // A different base seed must actually change the outcome.
    let c = Simulation::builder()
        .model(sparse_meg)
        .trials(TRIALS)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED + 1)
        .run();
    assert_ne!(a.times(), c.times());
}

#[test]
fn engine_flooding_matches_legacy_flood_on_static_graph() {
    let report = Simulation::builder()
        .model(static_grid)
        .trials(4)
        .max_rounds(100)
        .base_seed(BASE_SEED)
        .run();
    for rec in report.records() {
        let mut g = static_grid(rec.seed);
        let run = flood(&mut g, 0, 100);
        assert_eq!(rec.time, run.flooding_time());
        assert_eq!(rec.informed, run.informed_count());
    }
}

#[test]
fn engine_flooding_matches_legacy_flood_on_edge_meg() {
    let warm = 16;
    let report = Simulation::builder()
        .model(sparse_meg)
        .trials(TRIALS)
        .max_rounds(MAX_ROUNDS)
        .warm_up(warm)
        .base_seed(BASE_SEED)
        .run();
    for (trial, rec) in report.records().iter().enumerate() {
        assert_eq!(rec.seed, mix_seed(BASE_SEED, trial as u64));
        let mut g = sparse_meg(rec.seed);
        g.warm_up(warm);
        let run = flood(&mut g, 0, MAX_ROUNDS);
        assert_eq!(rec.time, run.flooding_time(), "trial {trial}");
        assert_eq!(rec.informed, run.informed_count(), "trial {trial}");
    }
}

#[test]
fn push_gossip_reservoir_is_byte_equivalent_on_high_degree_models() {
    // The fanout-aware virtual shuffle replaces an O(degree) buffer
    // copy; its RNG stream must be byte-identical, which shows as
    // identical records (messages included) on both read branches.
    // Degrees far above the fanout — dense edge-MEG and a complete
    // static graph — exercise the sampling branch every round.
    let dense_meg = |seed: u64| TwoStateEdgeMeg::stationary(48, 0.6, 0.1, seed).unwrap();
    for fanout in [1usize, 2, 5] {
        let run = || {
            Simulation::builder()
                .protocol(PushGossip::new(fanout))
                .trials(8)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED ^ 0x9055)
        };
        assert_eq!(
            run().model(dense_meg).run(),
            run().model(hidden(dense_meg)).run(),
            "fanout {fanout}"
        );
    }
    let complete = |_seed: u64| StaticEvolvingGraph::new(generators::complete(64));
    let run = || {
        Simulation::builder()
            .protocol(PushGossip::new(2))
            .trials(6)
            .max_rounds(10_000)
            .base_seed(BASE_SEED)
    };
    let report = run().model(complete).run();
    assert_eq!(report.incomplete(), 0);
    assert_eq!(report, run().model(hidden(complete)).run());
}

/// External scheduling (`run_trial`) reproduces the batch records.
fn assert_run_trial_matches_batch<G: EvolvingGraph>(make: impl Fn(u64) -> G + Sync + Copy) {
    let builder = move || {
        Simulation::builder()
            .model(make)
            .protocol(PushGossip::new(2))
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED ^ 0x7A1)
    };
    let batch = builder().trials(5).run();
    for (i, rec) in batch.records().iter().enumerate() {
        assert_eq!(&builder().run_trial(i), rec, "trial {i}");
    }
}

#[test]
fn run_trial_hook_reproduces_batch_trials_on_both_paths() {
    // The sweep scheduler drives trials one at a time through
    // `run_trial`; each must equal the corresponding record of a batch
    // run, on the delta branch (native model) and the snapshot branch
    // alike.
    assert_run_trial_matches_batch(sparse_meg);
    assert_run_trial_matches_batch(hidden(sparse_meg));
}

/// Per-worker model reuse plus a reusable scratch reproduce fresh
/// construction record for record.
fn assert_reuse_matches_fresh<G: EvolvingGraph>(make: impl Fn(u64) -> G + Sync + Copy) {
    let builder = move || {
        Simulation::builder()
            .model(make)
            .trials(8)
            .warm_up(12)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED ^ 0x2E5)
    };
    let reused = builder().run();
    let fresh = builder().reuse_models(false).run();
    assert_eq!(reused, fresh);

    // The opt-in handle external schedulers use: one model slot + one
    // scratch across all trials equals the stateless hook.
    let mut model = None;
    let mut scratch = dynspread::dynagraph::engine::TrialScratch::new();
    let b = builder();
    for (i, rec) in fresh.records().iter().enumerate() {
        assert_eq!(
            &b.run_trial_with(i, &mut model, &mut scratch),
            rec,
            "trial {i}"
        );
    }
}

#[test]
fn model_reuse_and_scratch_are_byte_identical_to_fresh_construction() {
    // The zero-rebuild pipeline: per-worker model reuse (reset between
    // trials) + reusable TrialScratch must reproduce the fresh-
    // allocation path record for record, on both read branches, for a
    // model with lazily grown internal state (the sparse-init edge-MEG's
    // occupancy map) and under warm-up.
    let lazy_meg = |seed: u64| {
        let n = 96;
        SparseTwoStateEdgeMeg::stationary_sparse_init(n, 1.5 / n as f64, 0.4, seed).unwrap()
    };
    assert_reuse_matches_fresh(lazy_meg);
    assert_reuse_matches_fresh(hidden(lazy_meg));
}

#[test]
fn engine_multi_source_matches_legacy_flood_multi() {
    let sources = [0u32, 17, 42];
    let report = Simulation::builder()
        .model(sparse_meg)
        .sources(sources)
        .trials(6)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .run();
    for rec in report.records() {
        let mut g = sparse_meg(rec.seed);
        let run = flood_multi(&mut g, &sources, MAX_ROUNDS);
        assert_eq!(rec.time, run.flooding_time());
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_flooding() {
    // The sparse edge-MEG is delta-native, so its trials take the delta
    // branch; behind HideDeltas the same realizations take the snapshot
    // branch. Records — times, informed counts, executed rounds, and
    // message tallies — must be byte-identical, serial and parallel.
    for parallel in [false, true] {
        let run = || {
            Simulation::builder()
                .trials(TRIALS)
                .max_rounds(MAX_ROUNDS)
                .warm_up(8)
                .base_seed(BASE_SEED)
                .parallel(parallel)
        };
        let delta = run().model(sparse_meg).run();
        assert_eq!(
            delta,
            run().model(hidden(sparse_meg)).run(),
            "parallel = {parallel}"
        );
        assert_eq!(delta.incomplete(), 0);
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_push_gossip() {
    for parallel in [false, true] {
        let run = || {
            Simulation::builder()
                .protocol(PushGossip::new(2))
                .trials(TRIALS)
                .max_rounds(MAX_ROUNDS)
                .base_seed(BASE_SEED)
                .parallel(parallel)
        };
        assert_eq!(
            run().model(hidden(sparse_meg)).run(),
            run().model(sparse_meg).run(),
            "parallel = {parallel}"
        );
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_parsimonious_flooding() {
    for parallel in [false, true] {
        for ttl in [1u32, 4] {
            let run = || {
                Simulation::builder()
                    .protocol(ParsimoniousFlooding::new(ttl))
                    .trials(TRIALS)
                    .max_rounds(MAX_ROUNDS)
                    .base_seed(BASE_SEED)
                    .parallel(parallel)
            };
            assert_eq!(
                run().model(hidden(sparse_meg)).run(),
                run().model(sparse_meg).run(),
                "parallel = {parallel}, ttl = {ttl}"
            );
        }
    }
}

#[test]
fn delta_path_multi_source_matches_snapshot_path() {
    let sources = [0u32, 17, 42];
    let run = || {
        Simulation::builder()
            .sources(sources)
            .trials(6)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
    };
    assert_eq!(
        run().model(hidden(sparse_meg)).run(),
        run().model(sparse_meg).run()
    );
}

#[test]
fn delta_path_feeds_observers_that_need_snapshots() {
    // An observer that reads E_t forces per-round materialization on the
    // delta branch; the edge sets it sees must match the snapshot
    // branch's.
    #[derive(Default)]
    struct EdgeTally {
        edges_per_round: Vec<usize>,
    }
    impl Observer for EdgeTally {
        fn needs_snapshots(&self) -> bool {
            true
        }
        fn on_round(&mut self, ctx: &RoundCtx<'_>) {
            self.edges_per_round
                .push(ctx.snapshot.expect("requested snapshots").edge_count());
        }
    }
    let run = || {
        Simulation::builder()
            .trials(4)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
            .observers(|_| EdgeTally::default())
    };
    let (rep_s, obs_s) = run().model(hidden(sparse_meg)).run_observed();
    let (rep_d, obs_d) = run().model(sparse_meg).run_observed();
    assert_eq!(rep_s, rep_d);
    for (s, d) in obs_s.iter().zip(&obs_d) {
        assert!(!s.edges_per_round.is_empty());
        assert_eq!(s.edges_per_round, d.edges_per_round);
    }
    // Observers that don't ask see None on the delta branch (and pay no
    // materialization): the default needs_snapshots is false.
    let (_, light) = Simulation::builder()
        .model(sparse_meg)
        .trials(1)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .observers(|_| {
            struct SeesNone(bool);
            impl Observer for SeesNone {
                fn on_round(&mut self, ctx: &RoundCtx<'_>) {
                    self.0 |= ctx.snapshot.is_some();
                }
            }
            SeesNone(false)
        })
        .run_observed();
    assert!(!light[0].0);
}

#[test]
#[should_panic(expected = "UNINFORMED sentinel")]
fn flood_rejects_the_uninformed_sentinel_as_round_cap() {
    // A node informed in round u32::MAX would read as never informed.
    let mut g = StaticEvolvingGraph::new(generators::path(3));
    let _ = flood(&mut g, 0, u32::MAX);
}

#[test]
fn observers_stream_what_records_say() {
    let (report, observers) = Simulation::builder()
        .model(sparse_meg)
        .trials(6)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .observers(|_trial| (MeanGrowthObserver::new(), DelayObserver::new()))
        .run_observed();
    assert_eq!(observers.len(), 6);
    assert_eq!(report.incomplete(), 0);
    let n = report.node_count();
    for ((growth, delays), rec) in observers.iter().zip(report.records()) {
        // One delay per informed node, capped by the completion round.
        assert_eq!(delays.delays().len(), rec.informed);
        assert_eq!(delays.uninformed(), 0);
        let q = delays.quantiles().unwrap();
        assert_eq!(q.max(), rec.time.unwrap() as f64);
        // The per-trial growth curve starts at |I_0| = 1 and ends at n.
        let curve = growth.mean_sizes();
        assert_eq!(curve.first().copied(), Some(1.0));
        assert_eq!(curve.last().copied(), Some(n as f64));
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn delta_path_matches_snapshot_path_for_section5_wrappers() {
    // The §5 wrappers are delta-native: thinning and jamming over a
    // churning edge-MEG must report byte-identical records on both read
    // branches, for every built-in protocol.
    use dynspread::dynagraph::{JammedEvolvingGraph, ThinnedEvolvingGraph};
    let thinned = |seed: u64| {
        let n = 96usize;
        let inner = TwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap();
        ThinnedEvolvingGraph::new(inner, 0.6, seed).unwrap()
    };
    let jammed = |seed: u64| {
        let n = 96usize;
        let inner = TwoStateEdgeMeg::stationary(n, 1.5 / n as f64, 0.4, seed).unwrap();
        JammedEvolvingGraph::new(inner, 4, seed).unwrap()
    };
    assert!(thinned(0).has_native_deltas());
    assert!(jammed(0).has_native_deltas());

    let flood_run = || {
        Simulation::builder()
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .warm_up(8)
            .base_seed(BASE_SEED)
    };
    assert_eq!(
        flood_run().model(hidden(thinned)).run(),
        flood_run().model(thinned).run()
    );

    let push_run = || {
        Simulation::builder()
            .protocol(PushGossip::new(2))
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
    };
    assert_eq!(
        push_run().model(hidden(jammed)).run(),
        push_run().model(jammed).run()
    );

    let pars_run = || {
        Simulation::builder()
            .protocol(ParsimoniousFlooding::new(3))
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .base_seed(BASE_SEED)
    };
    assert_eq!(
        pars_run().model(hidden(thinned)).run(),
        pars_run().model(thinned).run()
    );
}

#[test]
fn sparse_init_model_matches_across_stepping_paths() {
    // The O(#on) initializer drives the same event machinery; snapshot
    // and delta branches must agree on its realizations too.
    let model = |seed: u64| {
        let n = 128usize;
        SparseTwoStateEdgeMeg::stationary_sparse_init(n, 1.5 / n as f64, 0.3, seed).unwrap()
    };
    let run = || {
        Simulation::builder()
            .trials(8)
            .max_rounds(MAX_ROUNDS)
            .warm_up(6)
            .base_seed(BASE_SEED)
    };
    let snapshot = run().model(hidden(model)).run();
    assert_eq!(snapshot, run().model(model).run());
    assert_eq!(snapshot.incomplete(), 0);
}

#[test]
fn churn_observer_agrees_with_materialized_edge_counts() {
    // |E_t| reconstructed from the delta stream (baseline + cumulative
    // added − removed) must equal the edge counts a snapshot-reading
    // observer sees on the same trials.
    use dynspread::dynagraph::engine::ChurnObserver;
    #[derive(Default)]
    struct EdgeCountAndChurn {
        churn: ChurnObserver,
        edges: Vec<usize>,
        reconstructed: Vec<i64>,
        running: i64,
    }
    impl Observer for EdgeCountAndChurn {
        fn needs_snapshots(&self) -> bool {
            true
        }
        fn on_trial_start(&mut self, trial: usize, n: usize, sources: &[u32]) {
            self.churn.on_trial_start(trial, n, sources);
        }
        fn on_round(&mut self, ctx: &RoundCtx<'_>) {
            self.churn.on_round(ctx);
            self.edges.push(ctx.snapshot.expect("asked").edge_count());
            let d = ctx.delta.expect("delta path");
            self.running += d.added().len() as i64 - d.removed().len() as i64;
            self.reconstructed.push(self.running);
        }
    }
    let (_, observers) = Simulation::builder()
        .model(sparse_meg)
        .trials(3)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .observers(|_| EdgeCountAndChurn::default())
        .run_observed();
    for obs in &observers {
        assert!(!obs.edges.is_empty());
        let as_i64: Vec<i64> = obs.edges.iter().map(|&e| e as i64).collect();
        assert_eq!(obs.reconstructed, as_i64);
        assert_eq!(obs.churn.rounds_without_delta(), 0);
        // The baseline emission lands in initial_edges (= |E_0|), never
        // in the churn summary.
        assert_eq!(obs.churn.initial_edges().mean(), obs.edges[0] as f64);
        let max_later_churn = obs.edges.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0) as f64;
        assert!(obs.churn.churn().max() <= max_later_churn);
    }
    // On the snapshot branch the same observer sees no deltas at all.
    let (_, observers) = Simulation::builder()
        .model(hidden(sparse_meg))
        .trials(1)
        .max_rounds(MAX_ROUNDS)
        .base_seed(BASE_SEED)
        .observers(|_| ChurnObserver::new())
        .run_observed();
    assert!(observers[0].rounds_without_delta() > 0);
    assert_eq!(observers[0].churn().len(), 0);
}

#[test]
fn observer_factories_see_trial_indices_in_order() {
    let (_, observers) = Simulation::builder()
        .model(static_grid)
        .trials(8)
        .max_rounds(100)
        .observers(|trial| {
            struct TrialTag(usize);
            impl dynspread::dynagraph::engine::Observer for TrialTag {}
            TrialTag(trial)
        })
        .run_observed();
    let tags: Vec<usize> = observers.iter().map(|o| o.0).collect();
    assert_eq!(tags, (0..8).collect::<Vec<_>>());
}
