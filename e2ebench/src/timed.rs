//! Timing wrappers around the public layer seams: the model factory and
//! `EvolvingGraph::step_delta`, `Protocol::transmit_delta`, and the
//! sweep trial function.
//!
//! Each wrapper delegates every trait method to the wrapped value and
//! only adds clock reads and counter bumps around the timed ones, so it
//! cannot change what the engine or the sweep computes; the tests below
//! pin that down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dg_sweep::{Cell, Trial};
use dynagraph::engine::{Protocol, ProtocolStatus, SpreadView, Transmissions};
use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph, ShardAccess, Snapshot};

/// A nanosecond total plus the number of timed calls behind it.
#[derive(Debug, Default)]
pub struct Clock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn record(&self, since: Instant) {
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// What a [`TimedModel`] measures: construction, stepping, and the
/// edge events (births plus deaths) the steps emitted.
#[derive(Debug, Default)]
pub struct ModelClock {
    pub build: Clock,
    pub step: Clock,
    edge_events: AtomicU64,
}

impl ModelClock {
    pub fn edge_events(&self) -> u64 {
        self.edge_events.load(Ordering::Relaxed)
    }
}

/// An [`EvolvingGraph`] that times `step_delta` of the model it wraps
/// (the engine's delta path, which every probe takes).
#[derive(Debug)]
pub struct TimedModel<G> {
    inner: G,
    clock: Arc<ModelClock>,
}

/// Wraps a model factory so that construction is timed and the built
/// model is a [`TimedModel`].
pub fn timed_factory<G, F>(make: F, clock: Arc<ModelClock>) -> impl Fn(u64) -> TimedModel<G>
where
    F: Fn(u64) -> G,
{
    move |seed| {
        let t0 = Instant::now();
        let inner = make(seed);
        clock.build.record(t0);
        TimedModel {
            inner,
            clock: Arc::clone(&clock),
        }
    }
}

impl<G: EvolvingGraph> EvolvingGraph for TimedModel<G> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn step(&mut self) -> &Snapshot {
        self.inner.step()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }

    fn step_delta(&mut self, delta: &mut EdgeDelta) {
        let t0 = Instant::now();
        self.inner.step_delta(delta);
        self.clock.step.record(t0);
        self.clock
            .edge_events
            .fetch_add(delta.churn() as u64, Ordering::Relaxed);
    }

    fn has_native_deltas(&self) -> bool {
        self.inner.has_native_deltas()
    }

    fn rebase_deltas(&mut self) {
        self.inner.rebase_deltas();
    }

    fn warm_up(&mut self, rounds: usize) {
        self.inner.warm_up(rounds);
    }

    fn sharding(&mut self) -> Option<&mut dyn ShardAccess> {
        self.inner.sharding()
    }
}

/// A [`Protocol`] that times `transmit_delta` of the protocol it wraps.
/// Clones share one clock, as the engine clones its protocol per trial.
#[derive(Debug, Clone)]
pub struct TimedProtocol<P> {
    inner: P,
    clock: Arc<Clock>,
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, clock: Arc<Clock>) -> Self {
        TimedProtocol { inner, clock }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_trial(&mut self, n: usize, seed: u64) {
        self.inner.begin_trial(n, seed);
    }

    fn transmit(&mut self, snap: &Snapshot, view: &SpreadView<'_>, out: &mut Transmissions<'_>) {
        self.inner.transmit(snap, view, out);
    }

    fn transmit_delta(
        &mut self,
        adj: &mut DynAdjacency,
        delta: &EdgeDelta,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
    ) {
        let t0 = Instant::now();
        self.inner.transmit_delta(adj, delta, view, out);
        self.clock.record(t0);
    }

    fn end_round(&mut self, view: &SpreadView<'_>) -> ProtocolStatus {
        self.inner.end_round(view)
    }

    fn supports_sharded_flooding(&self) -> bool {
        self.inner.supports_sharded_flooding()
    }
}

/// Wraps a sweep trial function: every call is timed and counted,
/// including speculative trials the scheduler later discards.
pub fn timed_trials<F>(
    trial_fn: F,
    clock: Arc<Clock>,
) -> impl Fn(&Cell, Trial) -> Option<f64> + Send + Sync
where
    F: Fn(&Cell, Trial) -> Option<f64> + Send + Sync,
{
    move |cell, trial| {
        let t0 = Instant::now();
        let sample = trial_fn(cell, trial);
        clock.record(t0);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
    use dg_sweep::{Axis, CiTarget, SweepSpec, TrialBudget, TrialPanic};
    use dynagraph::engine::{Flooding, Simulation, TrialRecord};
    use dynagraph::Shards;

    fn plain(n: usize, shards: usize, trial: usize) -> TrialRecord {
        let p = 1.5 / n as f64;
        Simulation::builder()
            .model(move |s| ShardedSparseEdgeMeg::stationary(n, p, 0.5, s).unwrap())
            .base_seed(0xBEEF)
            .shards(shards)
            .run_trial(trial)
    }

    fn timed(n: usize, shards: usize, trial: usize) -> (TrialRecord, Arc<ModelClock>, Arc<Clock>) {
        let p = 1.5 / n as f64;
        let model = Arc::new(ModelClock::default());
        let proto = Arc::new(Clock::default());
        let record = Simulation::builder()
            .model(timed_factory(
                move |s| ShardedSparseEdgeMeg::stationary(n, p, 0.5, s).unwrap(),
                Arc::clone(&model),
            ))
            .protocol(TimedProtocol::new(Flooding::new(), Arc::clone(&proto)))
            .base_seed(0xBEEF)
            .shards(shards)
            .run_trial(trial);
        (record, model, proto)
    }

    #[test]
    fn timed_model_and_protocol_leave_records_unchanged() {
        for trial in 0..3 {
            let want = plain(3000, 1, trial);
            let (got, model, proto) = timed(3000, 1, trial);
            assert_eq!(got, want);
            assert_eq!(model.build.calls(), 1);
            // One step and one transmission per executed round.
            assert_eq!(model.step.calls(), u64::from(got.rounds));
            assert!(model.edge_events() > 0);
            assert_eq!(proto.calls(), u64::from(got.rounds));
        }
    }

    #[test]
    fn timed_wrappers_keep_serial_equal_to_sharded() {
        let want = plain(3000, 1, 0);
        assert_eq!(plain(3000, 3, 0), want);
        let (got, _, _) = timed(3000, 3, 0);
        assert_eq!(got, want);
        let (got, _, _) = timed(3000, Shards::Auto.resolve(), 0);
        assert_eq!(got, want);
    }

    #[test]
    fn timed_trial_fn_leaves_artifact_bytes_unchanged() {
        let spec = SweepSpec::new(
            vec![Axis::ints("n", [16, 40]), Axis::log("q", 0.05, 0.8, 3)],
            7,
            TrialBudget::adaptive(3, 12, CiTarget::Relative(0.1)),
        );
        let workload = dg_serve::Workload::flooding();
        let want = spec.sweep().run(workload.trial_fn()).unwrap().to_json();
        let clock = Arc::new(Clock::default());
        let got = spec
            .sweep()
            .run(timed_trials(workload.trial_fn(), Arc::clone(&clock)))
            .unwrap();
        assert_eq!(got.to_json(), want);
        assert!(clock.calls() as usize >= got.total_trials());

        // The daemon worker's own call shape: panic retry plus a
        // checkpoint file, which must end up holding the same bytes.
        let path = std::env::temp_dir().join(format!("e2ebench-ckpt-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        spec.sweep()
            .on_trial_panic(TrialPanic::Retry { max: 2 })
            .checkpoint(&path)
            .run(timed_trials(workload.trial_fn(), clock))
            .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn timed_exact_scan_model_matches_plain() {
        let n = 64;
        let p = 1.5 / n as f64;
        let make = move |s| SparseTwoStateEdgeMeg::stationary(n, p, 0.3, s).unwrap();
        let want = Simulation::builder().model(make).base_seed(3).run_trial(1);
        let clock = Arc::new(ModelClock::default());
        let got = Simulation::builder()
            .model(timed_factory(make, Arc::clone(&clock)))
            .base_seed(3)
            .run_trial(1);
        assert_eq!(got, want);
        assert!(clock.step.calls() > 0);
    }
}
