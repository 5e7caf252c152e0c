//! The workloads and the one pipeline each of them runs.
//!
//! A repetition of any workload walks the whole stack once, in order:
//!
//! 1. **set-up** — open a fresh store, start the daemon with the
//!    `dg-serve` binary's defaults (flooding workload, one worker,
//!    default queue) and bind its HTTP listener on loopback;
//! 2. **sweep** — `POST /sweep`, then poll `GET /sweep/<fp>` until the
//!    artifact is complete, and check the artifact;
//! 3. **reads** — a closed loop of nearest-cell queries and raw
//!    artifact fetches in a fixed interleaved order, each answer
//!    checked;
//! 4. **probe trials** — the workload's probe cell, in process, once on
//!    the serial round loop (`.shards(1)`) and once as the daemon runs
//!    it (`Shards::Auto`); the two records must be equal, and, when the
//!    probe cell lies on the grid, equal to the served samples of it.
//!
//! Batches of throwaway set-ups run between these steps all through the
//! run (see [`Samples::sample_setups`]).
//!
//! Repetitions continue until the run has made the workload's minimum
//! number of them (enough for 200 cell queries and 1000 artifact
//! fetches) and lasted `--seconds`; each
//! repetition uses its own seed, so the samples spread over inputs and
//! over the run's time. The traced run stops at the minimum, then
//! replays the daemon worker's own sweep call in process and times the
//! store and artifact layers directly.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dg_edge_meg::{ShardedSparseEdgeMeg, SparseTwoStateEdgeMeg};
use dg_serve::http::{self, Request, ServerHandle};
use dg_serve::{ArtifactStore, Daemon, DaemonConfig};
use dg_sweep::{mix_seed, Axis, CiTarget, SweepReport, SweepSpec, TrialBudget, TrialPanic};
use dynagraph::engine::{Flooding, Simulation, TrialRecord};
use dynagraph::{EvolvingGraph, Shards};

use crate::client::{field, prometheus_counter, Client, Tally};
use crate::machine;
use crate::stats::{median, percentile, tail_percentile, TAIL_SAMPLES};
use crate::timed::{timed_factory, timed_trials, Clock, ModelClock, TimedProtocol};

/// Above this node count the daemon's flooding workload runs the
/// lane-sharded model on all cores (`dg-serve`'s routing rule).
const SHARDED_FLOODING_N: usize = 92_682;
/// The daemon's round cap for cells without a `max_rounds` table.
const MAX_ROUNDS: u32 = 200_000;
/// Throwaway set-ups in each batch, so `setup_s` is a median over many.
const SETUP_BATCH: usize = 20;
/// Least time between two set-up batches (see [`SetupSampler`]).
const SETUP_EVERY: Duration = Duration::from_secs(1);
/// Give up on a sweep that is not complete after this long.
const SWEEP_DEADLINE: Duration = Duration::from_secs(120);
/// Repeats of each direct store/artifact-layer call in the traced run.
const LAYER_REPEATS: usize = 15;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// The cell the probe trials run, `(n, q)`; `p` is `1.5/n`. When it
    /// lies on the grid, the probe uses the daemon's seed for it.
    probe: (usize, f64),
    /// Probe trials per repetition, on each side (serial and Auto).
    probe_trials: usize,
    /// Cell queries and artifact fetches per repetition.
    reads: (usize, usize),
    /// Repetitions a run makes at least, each with its own seed.
    min_reps: u64,
    /// Whether to run one untimed probe trial first, so the timed ones
    /// do not pay the allocator's first touch of the probe's memory
    /// (skipped where one trial takes many seconds).
    warm_up: bool,
    axes: fn() -> Vec<Axis>,
    budget: fn() -> TrialBudget,
    poll: Duration,
}

pub const WORKLOADS: [Workload; 3] = [
    // The two million-node probe pairs take most of a run. The served
    // sweep is a smaller sharded cell (2^18 nodes, above the daemon's
    // sharding threshold) so that both pairs fit.
    Workload {
        name: "flood_1m",
        probe: (1 << 20, 0.5),
        probe_trials: 2,
        reads: (200, 1000),
        min_reps: 1,
        warm_up: false,
        axes: || vec![Axis::ints("n", [1 << 18]), Axis::explicit("q", [0.5])],
        budget: || TrialBudget::fixed(3),
        poll: Duration::from_millis(20),
    },
    // Runnable, but left out of BENCHMARK.json: two sweeps a run whose
    // trial counts vary with the seed spread wider than any allowed
    // bound on a 2-vCPU host (see README).
    Workload {
        name: "phase_sweep",
        probe: (4096, 0.16),
        probe_trials: 2,
        reads: (100, 500),
        min_reps: 2,
        warm_up: true,
        axes: || {
            vec![
                Axis::ints("n", [1024, 2048, 4096]),
                Axis::log("q", 0.01, 0.64, 4),
            ]
        },
        budget: || TrialBudget::adaptive(4, 32, CiTarget::Relative(0.1)),
        poll: Duration::from_millis(50),
    },
    Workload {
        name: "dense_grid",
        probe: (256, 0.9),
        probe_trials: 41,
        reads: (50, 250),
        min_reps: 6,
        warm_up: true,
        axes: || {
            vec![
                Axis::ints("n", [32, 64, 128, 256]),
                Axis::log("q", 0.01, 0.9, 64),
            ]
        },
        budget: || TrialBudget::adaptive(8, 96, CiTarget::Relative(0.05)),
        poll: Duration::from_millis(10),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self, base_seed: u64) -> SweepSpec {
        SweepSpec::new((self.axes)(), base_seed, (self.budget)())
    }

    /// The problem size as JSON members: grid, budget and probe.
    pub fn describe(&self) -> String {
        let spec = self.spec(0);
        let axes: Vec<String> = spec
            .axes()
            .iter()
            .map(|a| format!("\"{}\": {}", a.name(), a.values().len()))
            .collect();
        let b = spec.budget();
        format!(
            "\"axis_lengths\": {{{}}}, \"cells\": {}, \"min_trials\": {}, \"max_trials\": {}, \"probe\": {{\"n\": {}, \"q\": {}, \"trials\": {}}}",
            axes.join(", "),
            spec.cell_count(),
            b.min_trials,
            b.max_trials,
            self.probe.0,
            self.probe.1,
            self.probe_trials
        )
    }

    /// The id of the grid cell at the probe's coordinates, if any.
    fn probe_cell(&self, spec: &SweepSpec) -> Option<usize> {
        let (n, q) = self.probe;
        spec.grid()
            .cells()
            .iter()
            .find(|c| c.usize("n") == n && (c.get("q") - q).abs() < 1e-12)
            .map(|c| c.id())
    }

    /// The base seed of the probe trials: the daemon's seed for the
    /// probe cell when it lies on the grid, so the served samples can be
    /// checked against the probe's; otherwise a stream of its own.
    fn probe_seed(&self, spec: &SweepSpec) -> u64 {
        let stream = self.probe_cell(spec).map_or(u64::MAX, |id| id as u64);
        mix_seed(spec.base_seed(), stream)
    }
}

/// Run settings from the command line.
pub struct Options {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// One reported figure with the number of samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Failed correctness checks; any entry makes the run fail.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context lines printed before the result (program counts, sizes).
    pub notes: Vec<String>,
    /// Figures printed with the metrics but left out of the result line.
    pub text_only: Vec<Metric>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Raw samples, seconds unless named otherwise.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    open: Vec<f64>,
    serial: Vec<f64>,
    trial: Vec<f64>,
    sweep: Vec<f64>,
    cell: Vec<f64>,
    get: Vec<f64>,
    poll: Vec<f64>,
    first_checkpoint: Vec<f64>,
    /// Artifact GET round trip minus the daemon's handle time.
    overhead: Vec<f64>,
    /// Trials kept in each served artifact.
    sweep_trials: Vec<usize>,
    /// Rounds and messages summed over the serial probe trials.
    rounds: u64,
    messages: u64,
    /// Set-up batches taken so far, and when the last one ended.
    setup_batches: usize,
    last_setups: Option<Instant>,
}

/// Which route a request hit, as the traced handler closure records it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Post,
    Get,
    Cell,
    Other,
}

impl Route {
    fn of(req: &Request) -> Route {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["sweep"]) => Route::Post,
            ("GET", ["sweep", _]) => Route::Get,
            ("GET", ["sweep", _, "cell"]) => Route::Cell,
            _ => Route::Other,
        }
    }
}

type HandleLog = Arc<Mutex<Vec<(Route, f64)>>>;

/// The tracing state of a traced run: the clocks behind the probe's
/// model and protocol wrappers and the handler closure's log.
#[derive(Default)]
struct Trace {
    model: Arc<ModelClock>,
    protocol: Arc<Clock>,
    handled: HandleLog,
}

impl Trace {
    fn last_handle(&self) -> Option<(Route, f64)> {
        self.handled
            .lock()
            .expect("handler log lock")
            .last()
            .copied()
    }

    fn handle_times(&self, route: Route) -> Vec<f64> {
        let log = self.handled.lock().expect("handler log lock");
        log.iter()
            .filter(|(r, _)| *r == route)
            .map(|(_, s)| *s)
            .collect()
    }
}

/// A running store + daemon + listener.
struct Stack {
    root: PathBuf,
    daemon: Arc<Daemon>,
    server: ServerHandle,
}

impl Stack {
    /// Starts a stack over a fresh store at `root`; returns it with the
    /// set-up time and the store-open part of it.
    fn start(root: &Path, trace: Option<&Trace>) -> Result<(Stack, f64, f64), String> {
        let t0 = Instant::now();
        let store = ArtifactStore::open(root).map_err(|e| format!("opening store: {e}"))?;
        let open_s = t0.elapsed().as_secs_f64();
        let config = DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        };
        let daemon = Arc::new(
            Daemon::start_with(store, dg_serve::Workload::flooding(), config)
                .map_err(|e| format!("starting daemon: {e}"))?,
        );
        let handler = Arc::clone(&daemon);
        let server = match trace {
            None => http::serve("127.0.0.1:0", move |req: &Request| handler.handle(req)),
            Some(trace) => {
                let log = Arc::clone(&trace.handled);
                http::serve("127.0.0.1:0", move |req: &Request| {
                    let t0 = Instant::now();
                    let response = handler.handle(req);
                    let took = t0.elapsed().as_secs_f64();
                    log.lock()
                        .expect("handler log lock")
                        .push((Route::of(req), took));
                    response
                })
            }
        }
        .map_err(|e| format!("binding listener: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let stack = Stack {
            root: root.to_path_buf(),
            daemon,
            server,
        };
        Ok((stack, setup_s, open_s))
    }

    fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        self.daemon.shutdown();
        std::fs::remove_dir_all(&self.root)
            .map_err(|e| format!("removing {}: {e}", self.root.display()))
    }
}

impl Samples {
    /// Takes `setup_s` samples all through a run. Called at every
    /// boundary between two timed operations; when the last batch is at
    /// least [`SETUP_EVERY`] old, it starts and stops [`SETUP_BATCH`]
    /// throwaway stacks back to back. The host's speed drifts over
    /// seconds, so samples from the whole run give the run's typical
    /// set-up time rather than that of one moment; and a batch is warm
    /// after its first set-up, so its median does not hang on whatever
    /// ran just before it.
    fn sample_setups(&mut self, work: &Path, trace: Option<&Trace>) -> Result<(), String> {
        if self.last_setups.is_some_and(|t| t.elapsed() < SETUP_EVERY) {
            return Ok(());
        }
        for i in 0..SETUP_BATCH {
            let root = work.join(format!("setup-{}-{i}", self.setup_batches));
            let (stack, setup_s, open_s) = Stack::start(&root, trace)?;
            self.setup.push(setup_s);
            self.open.push(open_s);
            stack.stop()?;
        }
        self.setup_batches += 1;
        self.last_setups = Some(Instant::now());
        Ok(())
    }
}

/// One probe trial exactly as the daemon's flooding workload runs the
/// cell: the exact-scan model up to 92 682 nodes, the lane-sharded one
/// above. With `trace`, the model factory, the model's steps and the
/// protocol's transmissions are timed.
fn probe_trial(
    (n, q): (usize, f64),
    cell_seed: u64,
    index: usize,
    shards: Shards,
    trace: Option<&Trace>,
) -> TrialRecord {
    let p = 1.5 / n as f64;
    if n > SHARDED_FLOODING_N {
        run_probe(
            move |s| ShardedSparseEdgeMeg::stationary(n, p, q, s).expect("valid rates"),
            cell_seed,
            index,
            shards,
            trace,
        )
    } else {
        run_probe(
            move |s| SparseTwoStateEdgeMeg::stationary(n, p, q, s).expect("valid rates"),
            cell_seed,
            index,
            shards,
            trace,
        )
    }
}

fn run_probe<G: EvolvingGraph>(
    make: impl Fn(u64) -> G,
    cell_seed: u64,
    index: usize,
    shards: Shards,
    trace: Option<&Trace>,
) -> TrialRecord {
    let builder = Simulation::builder()
        .max_rounds(MAX_ROUNDS)
        .base_seed(cell_seed)
        .shards(shards);
    match trace {
        None => builder.model(make).run_trial(index),
        Some(t) => builder
            .model(timed_factory(make, Arc::clone(&t.model)))
            .protocol(TimedProtocol::new(Flooding::new(), Arc::clone(&t.protocol)))
            .run_trial(index),
    }
}

/// Builds (and drops) the model the daemon would build for trial 0 of
/// a cell, returning the seconds it took.
fn time_model_build(n: usize, q: f64, seed: u64) -> f64 {
    let p = 1.5 / n as f64;
    let t0 = Instant::now();
    if n > SHARDED_FLOODING_N {
        drop(std::hint::black_box(
            ShardedSparseEdgeMeg::stationary(n, p, q, seed).expect("valid rates"),
        ));
    } else {
        drop(std::hint::black_box(
            SparseTwoStateEdgeMeg::stationary(n, p, q, seed).expect("valid rates"),
        ));
    }
    t0.elapsed().as_secs_f64()
}

/// A uniform draw in `[0, 1)` from the benchmark seed stream.
fn unit(seed: u64, i: u64) -> f64 {
    (mix_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// The `i`-th nearest-cell query point: `n` uniform and `q` log-uniform
/// over the grid's span widened by 10% on each side, so queries land
/// both on and between grid points.
fn query_point(spec: &SweepSpec, seed: u64, i: u64) -> (f64, f64) {
    let span = |name: &str| {
        let axis = spec.axes().iter().find(|a| a.name() == name).expect("axis");
        let lo = axis.values().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = axis.values().iter().copied().fold(0.0, f64::max);
        (lo * 0.9, hi * 1.1)
    };
    let (n_lo, n_hi) = span("n");
    let (q_lo, q_hi) = span("q");
    let n = n_lo + (n_hi - n_lo) * unit(seed, 2 * i);
    let q = (q_lo.ln() + (q_hi.ln() - q_lo.ln()) * unit(seed, 2 * i + 1)).exp();
    (n, q)
}

/// Checks a `GET /sweep/<fp>/cell` answer against `nearest_cell` on
/// the parsed artifact.
fn check_cell_answer(
    body: &[u8],
    report: &SweepReport,
    query: &[(&str, f64)],
) -> Result<(), String> {
    let want = report
        .nearest_cell(query)
        .map_err(|e| format!("nearest_cell({query:?}): {e}"))?;
    let text = std::str::from_utf8(body).map_err(|_| "cell answer is not UTF-8".to_string())?;
    let get = |name: &str| field(text, name).ok_or_else(|| format!("cell answer lacks {name:?}"));
    let mean = match get("mean")? {
        "null" => None,
        v => Some(v.parse::<f64>().map_err(|e| format!("mean {v:?}: {e}"))?),
    };
    let got = (
        get("id")?.parse::<usize>().ok(),
        get("exact")?.parse::<bool>().ok(),
        get("distance")?.parse::<f64>().ok(),
        get("trials")?.parse::<usize>().ok(),
        mean,
    );
    let expected = (
        Some(want.cell.id),
        Some(want.exact),
        Some(want.distance),
        Some(want.cell.trials()),
        want.cell.mean(),
    );
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "cell answer for {query:?} was {got:?}, nearest_cell gives {expected:?}"
        ))
    }
}

/// Checks the served artifact: complete, at the spec's fingerprint,
/// with the spec's cell count and every cell's trials within budget.
fn check_artifact(spec: &SweepSpec, report: &SweepReport, out: &mut Outcome) {
    let budget = spec.budget();
    out.check(report.fingerprint() == spec.fingerprint(), || {
        format!(
            "artifact fingerprint {} differs from the spec's {}",
            report.fingerprint(),
            spec.fingerprint()
        )
    });
    out.check(report.is_complete(), || {
        "served artifact is not complete".into()
    });
    out.check(report.cells().len() == spec.cell_count(), || {
        format!(
            "artifact has {} cells, the spec {}",
            report.cells().len(),
            spec.cell_count()
        )
    });
    for cell in report.cells() {
        let trials = cell.trials();
        out.check(
            cell.decided && (budget.min_trials..=budget.max_trials).contains(&trials),
            || {
                format!(
                    "cell {} ran {trials} trials (decided: {}), budget {}..={}",
                    cell.id, cell.decided, budget.min_trials, budget.max_trials
                )
            },
        );
    }
}

/// What one repetition leaves for the end of the run: its still-running
/// stack, the spec, and the served artifact.
struct Rep {
    stack: Stack,
    spec: SweepSpec,
    served: Vec<u8>,
}

fn run_rep(
    w: &Workload,
    opts: &Options,
    rep: u64,
    work: &Path,
    s: &mut Samples,
    out: &mut Outcome,
    trace: Option<&Trace>,
) -> Result<Rep, String> {
    let base_seed = mix_seed(opts.seed, rep);
    let spec = w.spec(base_seed);
    let fp = spec.fingerprint();

    // 1. Set-up, after a batch of throwaway ones.
    s.sample_setups(work, trace)?;
    let (stack, setup_s, open_s) = Stack::start(&work.join(format!("rep-{rep}")), trace)?;
    s.setup.push(setup_s);
    s.open.push(open_s);

    // 2. The sweep, from POST to the first poll that sees it complete.
    let mut client = Client::new(stack.server.addr());
    let t_post = Instant::now();
    client
        .call("POST", "/sweep", spec.to_json().as_bytes(), &[202])
        .map_err(|e| e.message)?;
    let target = format!("/sweep/{fp}");
    let checkpoint = stack.daemon.store().path_for(fp);
    let mut first_checkpoint = None;
    let served = loop {
        // The worker checkpoints straight into the store; the file's
        // first appearance is its first checkpoint.
        if first_checkpoint.is_none() && checkpoint.exists() {
            first_checkpoint = Some(t_post.elapsed().as_secs_f64());
        }
        match client.call("GET", &target, b"", &[200, 202]) {
            Ok(reply) => {
                s.poll.push(reply.elapsed.as_secs_f64());
                if reply.status == 200 {
                    let head = &reply.body[..reply.body.len().min(200)];
                    if String::from_utf8_lossy(head).contains("\"complete\": true") {
                        let done = t_post.elapsed().as_secs_f64();
                        s.sweep.push(done);
                        s.first_checkpoint.push(first_checkpoint.unwrap_or(done));
                        break reply.body;
                    }
                }
            }
            Err(e) if e.status == Some(500) => {
                return Err(format!("sweep failed: {}", e.message));
            }
            Err(_) => {} // counted as failed; keep polling
        }
        if t_post.elapsed() > SWEEP_DEADLINE {
            return Err(format!("sweep {fp} not complete after {SWEEP_DEADLINE:?}"));
        }
        std::thread::sleep(w.poll);
    };
    let text = std::str::from_utf8(&served).map_err(|_| "artifact is not UTF-8".to_string())?;
    let report = SweepReport::from_json(text).map_err(|e| format!("parsing artifact: {e}"))?;
    check_artifact(&spec, &report, out);
    s.sweep_trials.push(report.total_trials());
    s.sample_setups(work, trace)?;

    // 3. Reads: a closed loop over a fixed interleaving of cell queries
    // and artifact GETs.
    let read_seed = mix_seed(opts.seed ^ 0x4EAD, rep);
    let (cells, gets) = w.reads;
    let period = 1 + gets / cells;
    for i in 0..cells * period {
        if i % period == 0 {
            let (n, q) = query_point(&spec, read_seed, i as u64);
            let target = format!("/sweep/{fp}/cell?n={n}&q={q}");
            if let Ok(reply) = client.call("GET", &target, b"", &[200]) {
                s.cell.push(reply.elapsed.as_secs_f64());
                if let Err(e) = check_cell_answer(&reply.body, &report, &[("n", n), ("q", q)]) {
                    out.failures.push(e);
                }
            }
        } else if let Ok(reply) = client.call("GET", &target, b"", &[200]) {
            s.get.push(reply.elapsed.as_secs_f64());
            out.check(reply.body == served, || {
                "an artifact GET served different bytes".into()
            });
            if let Some((Route::Get, handled)) = trace.and_then(Trace::last_handle) {
                s.overhead.push(reply.elapsed.as_secs_f64() - handled);
            }
        }
    }
    s.sample_setups(work, trace)?;

    // 4. Probe trial pairs, seeded as the daemon seeds the probe cell;
    // which side goes first alternates, so neither always pays the
    // allocator's first-touch cost.
    let cell_seed = w.probe_seed(&spec);
    let mut probes = Vec::with_capacity(w.probe_trials);
    for index in 0..w.probe_trials {
        let sides = if (rep as usize + index).is_multiple_of(2) {
            [Shards::Fixed(1), Shards::Auto]
        } else {
            [Shards::Auto, Shards::Fixed(1)]
        };
        let (mut serial, mut auto) = (None, None);
        for shards in sides {
            let serial_side = shards == Shards::Fixed(1);
            let t0 = Instant::now();
            let record = probe_trial(
                w.probe,
                cell_seed,
                index,
                shards,
                trace.filter(|_| serial_side),
            );
            let took = t0.elapsed().as_secs_f64();
            if serial_side {
                s.serial.push(took);
                serial = Some(record);
            } else {
                s.trial.push(took);
                auto = Some(record);
            }
            s.sample_setups(work, trace)?;
        }
        let (serial, auto) = (
            serial.expect("serial side ran"),
            auto.expect("Auto side ran"),
        );
        out.tally.attempted += 2;
        out.tally.failed += u64::from(serial.time.is_none()) + u64::from(auto.time.is_none());
        s.rounds += u64::from(serial.rounds);
        s.messages += serial.messages;
        out.check(serial == auto, || {
            format!("probe trial {index}: serial {serial:?} differs from Shards::Auto {auto:?}")
        });
        probes.push(serial);
    }
    if let Some(cell_id) = w.probe_cell(&spec) {
        let cell = report.cell(cell_id);
        for (t, probe) in probes.iter().enumerate().take(cell.trials()) {
            out.check(cell.samples[t][0] == probe.time.map(f64::from), || {
                format!(
                    "served sample {:?} of cell {cell_id} trial {t} differs from the probe's {:?}",
                    cell.samples[t][0], probe.time
                )
            });
        }
    }
    out.tally.add(&client.tally);
    s.sample_setups(work, trace)?;
    Ok(Rep {
        stack,
        spec,
        served,
    })
}

/// Runs `w` for about `opts.seconds` (the traced run: for its minimum
/// repetitions) and reports its metrics.
pub fn run(w: &Workload, opts: &Options, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let trace = opts.trace.then(Trace::default);

    let started = Instant::now();
    if w.warm_up {
        let cell_seed = w.probe_seed(&w.spec(opts.seed));
        probe_trial(w.probe, cell_seed, w.probe_trials, Shards::Fixed(1), None);
    }
    let mut rep = 0;
    let last = loop {
        let t0 = Instant::now();
        let last = run_rep(w, opts, rep, work, &mut s, &mut out, trace.as_ref())?;
        rep += 1;
        // Start another repetition only if it would end within
        // `--seconds`.
        if rep >= w.min_reps && (opts.trace || started.elapsed() + t0.elapsed() > opts.seconds) {
            break last;
        }
        last.stack.stop()?;
    };

    // The program's own counts, scraped once at the end.
    let mut client = Client::new(last.stack.server.addr());
    let metrics = client
        .call("GET", "/metrics", b"", &[200])
        .map_err(|e| e.message)?;
    out.tally.add(&client.tally);
    let text = String::from_utf8_lossy(&metrics.body);
    let counts = [
        ("checkpoint_writes", "dg_sweep_checkpoint_writes_total"),
        (
            "speculation_discards",
            "dg_sweep_speculation_discarded_total",
        ),
        ("trial_retries", "dg_sweep_trial_retries_total"),
        ("worker_restarts", "dg_serve_worker_restarts_total"),
    ]
    .map(|(name, counter)| (name, prometheus_counter(&text, counter)));
    out.notes.push(format!(
        "trials kept per served sweep: {:?}",
        s.sweep_trials
    ));
    if s.serial.len() <= 4 {
        out.notes.push(format!(
            "probe trial seconds, in run order: serial {:?}, Shards::Auto {:?}",
            s.serial, s.trial
        ));
    }
    out.notes.push(format!(
        "program counts (GET /metrics, {rep} sweep(s)): {}",
        counts
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (name, v) in &counts[2..] {
        out.check(*v == 0, || {
            format!("the program counted {v} {name}; expected 0")
        });
    }

    if let Some(trace) = &trace {
        replay(&last, work, trace, &s, &mut out, counts, started)?;
    }
    last.stack.stop()?;
    if opts.trace {
        out.metrics.extend(read_latencies(&s)?);
    } else {
        end_to_end(&s, &mut out, "")?;
        out.text_only = read_latencies(&s)?;
    }
    Ok(out)
}

/// Every end-to-end metric, named `<prefix><name>`.
fn end_to_end(s: &Samples, out: &mut Outcome, prefix: &str) -> Result<(), String> {
    let name = |m: &str| format!("{prefix}{m}");
    out.put(&name("setup_s"), median(&s.setup), "s", s.setup.len());
    out.put(&name("trial_s"), median(&s.trial), "s", s.trial.len());
    let serial = median(&s.serial);
    out.put(&name("serial_trial_s"), serial, "s", s.serial.len());
    out.put(&name("sweep_s"), median(&s.sweep), "s", s.sweep.len());
    if prefix.is_empty() {
        let t = &out.tally;
        let ok = (t.attempted - t.failed) as f64 / t.attempted as f64;
        out.put("ok_rate", ok, "ratio", t.attempted as usize);
        let rss = machine::peak_rss_mb().ok_or("peak RSS unavailable (no /proc/self/status)")?;
        out.put("peak_rss_mb", rss, "MiB", 1);
    }
    Ok(())
}

/// The read latencies: median and p95 of the cell queries and of the
/// artifact GETs. Sub-millisecond round trips swing with the host's
/// scheduling far more than any bound allows (see README), so they are
/// reported with every run but gated by none.
fn read_latencies(s: &Samples) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    for (name, xs) in [("cell_query", &s.cell), ("artifact_get", &s.get)] {
        if tail_percentile(xs.len(), TAIL_SAMPLES).is_none_or(|p| p < 95) {
            return Err(format!(
                "{} {name} samples leave fewer than {TAIL_SAMPLES} beyond p95",
                xs.len()
            ));
        }
        for p in [50, 95] {
            metrics.push(Metric {
                name: format!("read.{name}_p{p}_ms"),
                value: percentile(xs, f64::from(p)) * 1e3,
                unit: "ms",
                samples: xs.len(),
            });
        }
    }
    Ok(metrics)
}

/// The traced run's layer split: replays the daemon worker's sweep call
/// in process (with and without its checkpoint), times the model
/// factory per cell and the store and artifact layers directly, and
/// reads the probe and handler clocks.
fn replay(
    last: &Rep,
    work: &Path,
    trace: &Trace,
    s: &Samples,
    out: &mut Outcome,
    counts: [(&str, u64); 4],
    run_start: Instant,
) -> Result<(), String> {
    let spec = &last.spec;
    let fp = spec.fingerprint();
    let threads = machine::cores();

    // The worker's own call, into a separate store.
    let store =
        ArtifactStore::open(work.join("replay")).map_err(|e| format!("replay store: {e}"))?;
    let with = Arc::new(Clock::default());
    let t0 = Instant::now();
    let report = spec
        .sweep()
        .on_trial_panic(TrialPanic::Retry { max: 2 })
        .checkpoint(store.path_for(fp))
        .run(timed_trials(
            dg_serve::Workload::flooding().trial_fn(),
            Arc::clone(&with),
        ))
        .map_err(|e| format!("replay: {e}"))?;
    let with_s = t0.elapsed().as_secs_f64();
    store
        .refresh(fp)
        .map_err(|e| format!("indexing replay: {e}"))?;
    let on_disk = store
        .get_raw(fp)
        .map_err(|e| format!("reading replay: {e}"))?
        .ok_or("the replay left no artifact")?;
    out.check(on_disk == last.served, || {
        "the served artifact differs from the in-process replay's bytes".into()
    });
    let without = Arc::new(Clock::default());
    let t0 = Instant::now();
    let plain = spec
        .sweep()
        .on_trial_panic(TrialPanic::Retry { max: 2 })
        .run(timed_trials(
            dg_serve::Workload::flooding().trial_fn(),
            Arc::clone(&without),
        ))
        .map_err(|e| format!("replay without checkpoint: {e}"))?;
    let without_s = t0.elapsed().as_secs_f64();
    out.check(plain.to_json().as_bytes() == last.served.as_slice(), || {
        "a replay without checkpoint serialises different bytes".into()
    });

    // The model factory on each cell's parameters (trial 0's seed).
    let mut build_s = 0.0;
    let mut build_in_trials = 0.0;
    for (cell, kept) in spec.grid().cells().iter().zip(report.cells()) {
        let seed = mix_seed(mix_seed(spec.base_seed(), cell.id() as u64), 0);
        let b = time_model_build(cell.usize("n"), cell.get("q"), seed);
        build_s += b;
        build_in_trials += b * kept.trials() as f64;
    }

    // Store and artifact layers, called directly.
    let text = String::from_utf8_lossy(&last.served).into_owned();
    let repeat = |times: usize, f: &mut dyn FnMut()| -> Vec<f64> {
        (0..times)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    let to_json = repeat(LAYER_REPEATS, &mut || {
        std::hint::black_box(report.to_json());
    });
    let from_json = repeat(LAYER_REPEATS, &mut || {
        std::hint::black_box(SweepReport::from_json(&text).expect("served artifact parses"));
    });
    let get_raw = repeat(4 * LAYER_REPEATS, &mut || {
        std::hint::black_box(store.get_raw(fp).expect("replay store read"));
    });
    let get = repeat(LAYER_REPEATS, &mut || {
        std::hint::black_box(store.get(fp).expect("replay store read"));
    });

    let busy = with.seconds();
    let attempted = with.calls() as f64;
    let kept = report.total_trials() as f64;
    let model = &trace.model;
    let serial_total: f64 = s.serial.iter().sum();
    let step_s = model.step.seconds();
    let transmit_s = trace.protocol.seconds();
    let rounds = s.rounds as f64;

    out.put("model.build_s", build_s, "s", spec.cell_count());
    out.put(
        "model.build_share",
        build_in_trials / busy,
        "ratio",
        spec.cell_count(),
    );
    out.put("model.step_s", step_s, "s", model.step.calls() as usize);
    out.put("model.edge_events", model.edge_events() as f64, "count", 1);
    out.put(
        "model.step_ns_per_event",
        step_s * 1e9 / model.edge_events() as f64,
        "ns",
        model.step.calls() as usize,
    );
    out.put(
        "engine.self_s",
        serial_total - model.build.seconds() - step_s - transmit_s,
        "s",
        s.serial.len(),
    );
    out.put("engine.rounds", rounds, "count", s.serial.len());
    out.put(
        "protocol.transmit_s",
        transmit_s,
        "s",
        trace.protocol.calls() as usize,
    );
    out.put(
        "protocol.messages",
        s.messages as f64,
        "count",
        s.serial.len(),
    );
    out.put("shard.threads", Shards::Auto.resolve() as f64, "count", 1);
    out.put(
        "shard.efficiency",
        median(&s.serial) / (median(&s.trial) * Shards::Auto.resolve() as f64),
        "ratio",
        s.trial.len(),
    );
    out.put("sweep.trial_busy_s", busy, "s", with.calls() as usize);
    out.put(
        "sweep.worker_util",
        busy / (with_s * threads as f64),
        "ratio",
        1,
    );
    out.put("sweep.trials_attempted", attempted, "count", 1);
    out.put("sweep.trials_kept", kept, "count", 1);
    out.put("sweep.useful_ratio", kept / attempted, "ratio", 1);
    out.put("sweep.checkpoint_s", with_s - without_s, "s", 1);
    out.put("report.to_json_ms", median(&to_json), "ms", to_json.len());
    out.put("report.bytes", last.served.len() as f64, "bytes", 1);
    out.put(
        "report.from_json_ms",
        median(&from_json),
        "ms",
        from_json.len(),
    );
    out.put("store.open_s", median(&s.open), "s", s.open.len());
    out.put("store.get_raw_ms", median(&get_raw), "ms", get_raw.len());
    out.put("store.get_ms", median(&get), "ms", get.len());
    for (name, route) in [
        ("daemon.handle_ms.cell", Route::Cell),
        ("daemon.handle_ms.get", Route::Get),
        ("daemon.handle_ms.post", Route::Post),
    ] {
        let xs = trace.handle_times(route);
        out.put(name, median(&xs) * 1e3, "ms", xs.len());
    }
    out.put(
        "daemon.first_checkpoint_s",
        median(&s.first_checkpoint),
        "s",
        s.first_checkpoint.len(),
    );
    out.put(
        "http.overhead_ms",
        median(&s.overhead) * 1e3,
        "ms",
        s.overhead.len(),
    );
    out.put(
        "http.poll_p50_ms",
        median(&s.poll) * 1e3,
        "ms",
        s.poll.len(),
    );
    for (name, v) in counts {
        out.put(&format!("program.{name}"), v as f64, "count", 1);
    }

    // Tracing cost: timer reads taken by the wrappers, priced at the
    // measured cost of one read pair, against the run's wall time.
    let timer_pairs = model.build.calls()
        + model.step.calls()
        + trace.protocol.calls()
        + with.calls()
        + without.calls()
        + trace.handled.lock().expect("handler log lock").len() as u64;
    let pair_ns = timer_pair_ns();
    let cost = timer_pairs as f64 * pair_ns * 1e-9 / run_start.elapsed().as_secs_f64();
    out.put("trace.cost_pct", cost * 100.0, "%", timer_pairs as usize);
    end_to_end(s, out, "trace.")
}

/// Nanoseconds per `Instant::now()` + `elapsed()` pair, the unit cost
/// of every timing wrapper.
fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads a run's minimum repetitions must make: enough for a p95
    /// with ten samples beyond it.
    const CELL_QUERIES: usize = 200;
    const ARTIFACT_GETS: usize = 1000;

    #[test]
    fn minimum_repetitions_make_the_minimum_reads() {
        for w in &WORKLOADS {
            let reps = w.min_reps as usize;
            let (cells, gets) = w.reads;
            assert!(cells * reps >= CELL_QUERIES, "{}", w.name);
            assert!(gets * reps >= ARTIFACT_GETS, "{}", w.name);
        }
    }

    #[test]
    fn sweep_workloads_probe_a_served_cell() {
        for name in ["phase_sweep", "dense_grid"] {
            let w = workload(name).unwrap();
            let spec = w.spec(1);
            let id = w.probe_cell(&spec).expect("probe on the grid");
            assert_eq!(spec.grid().cell(id).usize("n"), w.probe.0, "{name}");
            assert_eq!(w.probe_seed(&spec), mix_seed(1, id as u64));
        }
        // flood_1m serves a smaller cell; its probe is seeded apart.
        let w = workload("flood_1m").unwrap();
        let spec = w.spec(1);
        assert_eq!(w.probe_cell(&spec), None);
        assert_ne!(w.probe_seed(&spec), mix_seed(1, 0));
    }
}
