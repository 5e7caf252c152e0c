//! The unified simulation engine: one builder-driven entry point for
//! every spreading Monte-Carlo in the workspace.
//!
//! The paper analyzes a single process — `I_{t+1} = I_t ∪ N_{E_t}(I_t)`
//! and its randomized/resource-bounded variants — over many dynamic-graph
//! families. The engine factors that product space into three orthogonal
//! axes:
//!
//! * **model** — any [`EvolvingGraph`](crate::EvolvingGraph) factory
//!   `Fn(u64) -> G`, seeded per trial;
//! * **protocol** — a [`Protocol`] deciding who transmits to whom each
//!   round: [`Flooding`], [`PushGossip`], [`ParsimoniousFlooding`], or
//!   your own;
//! * **observers** — streaming per-round [`Observer`]s (growth curves,
//!   phase structure, delivery delays) that never buffer whole runs.
//!
//! [`Simulation::builder`] owns everything the old ad-hoc loops
//! duplicated: per-trial seed derivation (`mix_seed(base_seed, trial)`),
//! warm-up to stationarity, the synchronous round loop, round caps,
//! quiescence detection, and trial aggregation. With the `parallel`
//! feature (default) trials run on all cores; results are byte-identical
//! to the serial engine because every trial is a pure function of its
//! derived seed and aggregation is ordered by trial index.
//!
//! # Quickstart
//!
//! ```
//! use dynagraph::engine::Simulation;
//! use dynagraph::StaticEvolvingGraph;
//! use dg_graph::generators;
//!
//! let report = Simulation::builder()
//!     .model(|_seed| StaticEvolvingGraph::new(generators::cycle(9)))
//!     .trials(8)
//!     .max_rounds(100)
//!     .run();
//! assert_eq!(report.incomplete(), 0);
//! assert_eq!(report.mean(), 4.0);
//! ```
//!
//! # How `E_t` is read
//!
//! There is no stepping option: every trial runs the same round loop,
//! and the one thing it branches on — how the round's edge set is read —
//! follows from the model, once per trial:
//!
//! * models advertising
//!   [`EvolvingGraph::has_native_deltas`](crate::EvolvingGraph::has_native_deltas)
//!   drive [`step_delta`](crate::EvolvingGraph::step_delta) through a
//!   [`crate::DynAdjacency`] and [`Protocol::transmit_delta`] — per-round
//!   cost proportional to churn plus frontier work;
//! * all other models hand their own [`crate::Snapshot`] to
//!   [`Protocol::transmit`] — cheaper than diffing every snapshot into
//!   an adjacency, since such a model builds the snapshot anyway.
//!
//! Records are byte-identical either way, which is why the choice can be
//! the model's. `HideDeltas` (a test helper) wraps a model to force the
//! snapshot branch:
//!
//! ```
//! use dynagraph::engine::Simulation;
//! use dynagraph::{HideDeltas, PeriodicEvolvingGraph};
//! use dg_graph::generators;
//!
//! let graphs = [generators::path(10), generators::cycle(10)];
//! let native = |_seed: u64| PeriodicEvolvingGraph::new(&graphs).unwrap();
//! let run = || Simulation::builder().trials(3).max_rounds(100);
//! assert_eq!(
//!     run().model(native).run(),
//!     run().model(|seed| HideDeltas(native(seed))).run()
//! );
//! ```
//!
//! On the delta branch, observers see [`RoundCtx::delta`] for free (e.g.
//! [`ChurnObserver`]); a CSR snapshot is materialized per round only for
//! observers whose [`Observer::needs_snapshots`] returns `true`.
//!
//! # Migrating from the pre-engine API
//!
//! The pre-engine Monte-Carlo loops are gone; every one of them is a
//! builder configuration:
//!
//! | old (removed)                                     | new                                        |
//! |---------------------------------------------------|--------------------------------------------|
//! | `flooding::run_trials(make, &TrialConfig {..})`   | `Simulation::builder().model(make)…run()`  |
//! | `gossip::push_spread(&mut g, s, k, cap, seed)`    | `.protocol(PushGossip::new(k))`            |
//! | `gossip::parsimonious_flood(&mut g, s, ttl, cap)` | `.protocol(ParsimoniousFlooding::new(ttl))`|
//! | hand-rolled trial loops + `Summary`               | `.observers(…)` + [`SimulationReport`]     |
//! | `.stepping(Stepping::Snapshot)`                   | wrap the model in `HideDeltas`             |
//!
//! `flooding::flood`, `flood_multi` and `flood_sharded` remain as
//! single-run primitives; each is one call into the engine's executor.

pub(crate) mod instrument;
mod observer;
mod protocol;
mod report;
mod simulation;

pub use observer::{
    ChurnObserver, DelayObserver, MeanGrowthObserver, Observer, PhaseObserver, RoundCtx,
};
pub use protocol::{
    Flooding, ParsimoniousFlooding, Protocol, ProtocolStatus, PushGossip, SpreadView, Transmissions,
};
pub use report::{SimulationReport, TrialRecord};
pub(crate) use simulation::{execute_trial, TrialSpec};
pub use simulation::{NoModel, Simulation, SimulationBuilder, TrialScratch};
