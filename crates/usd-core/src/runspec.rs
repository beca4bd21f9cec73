//! The unified run entrypoint: [`RunSpec`].
//!
//! Historically every way of driving a USD run had its own free function in
//! [`crate::backend`] — clique vs topology, fire-and-forget vs keeping the
//! engine, with vs without a progress ticker — six near-duplicate
//! entrypoints whose signatures grew in lockstep. [`RunSpec`] collapses
//! them into one builder:
//!
//! ```
//! use sim_stats::rng::SimRng;
//! use usd_core::{Backend, RunSpec, UsdConfig};
//!
//! let config = UsdConfig::decided(vec![800, 200]);
//! let mut rng = SimRng::new(11);
//! let result = RunSpec::new(&config)
//!     .backend(Backend::SkipAhead)
//!     .budget(u64::MAX / 2)
//!     .run(&mut rng);
//! assert!(result.stabilized());
//! ```
//!
//! Optional knobs compose instead of multiplying entrypoints:
//! [`topology`](RunSpec::topology) switches the run to a
//! [`TopologyFamily`] graph, [`replicas`](RunSpec::replicas) packs r ≤ 64
//! independent lanes into one [`ReplicaSimulator`] pass
//! ([`Backend::Replica`] only — see
//! [`Backend::capabilities`]), [`threads`](RunSpec::threads) caps the
//! worker threads of the thread-capable engines (resolved **once** at
//! builder construction from the process-wide override > the
//! `USD_THREADS` environment variable > available parallelism, then
//! carried as plain data — engines never consult the environment),
//! [`ticker`](RunSpec::ticker) attaches a chunk-boundary
//! [`RunTicker`] (heartbeats, flight recorders, checkpoint hooks), and
//! [`observer`](RunSpec::observer) streams count-change
//! [`Observation`]s to a
//! [`SimObserver`]. [`run`](RunSpec::run) returns the classified
//! [`StabilizationResult`]; [`run_keeping`](RunSpec::run_keeping) also
//! hands back the engine so telemetry, histograms, and — for replica runs
//! — the per-lane outcome survive the drive
//! ([`EnsembleOutcome::from_simulator`] reads them off the kept engine).
//!
//! Construction without driving is [`RunSpec::build_simulator`] — the one
//! place every backend (including [`Backend::Replica`]) registers; the
//! [`make_simulator`](crate::backend::make_simulator) /
//! [`make_topology_simulator`](crate::backend::make_topology_simulator)
//! helpers delegate here. Resumed runs (engine restored from a
//! [`RunCheckpoint`](crate::checkpoint::RunCheckpoint), clock mid-flight)
//! re-enter the identical chunked drive loops through
//! [`RunSpec::drive`] / [`RunSpec::drive_agent_graph`].
//!
//! # Drive loops
//!
//! The builder routes to one of three loops: a clique run with no ticker
//! and no observer is a single `run_to_silence` call; attaching a ticker
//! or observer switches to the `~max(4n, 2¹⁶)`-chunked loop; topology runs
//! always drive chunked, with [`Backend::Agent`] additionally interleaving
//! the exact O(m) frozen-configuration edge scan.

use crate::backend::{classify_counts, Backend, RunTicker, COMPLETE_GRAPH_MAX_N};
use crate::config::UsdConfig;
use crate::protocol::UndecidedStateDynamics;
use crate::skip_ahead::SkipAheadSimulator;
use crate::stabilization::StabilizationResult;
use pop_proto::simulator::{block_layout, shuffled_layout, MAX_LANES};
use pop_proto::{
    AgentSimulator, BatchGraphSimulator, BatchSimulator, CliqueScheduler, CountSimulator, Graph,
    GraphScheduler, GraphSimulator, Observation, Protocol, ReplicaSimulator, SimObserver,
    Simulator, StateWord, TopologyFamily, WideBatchGraphSimulator,
};
use sim_stats::rng::SimRng;
use sim_stats::threads::resolve_threads;

/// Lane count a [`Backend::Replica`] run packs when
/// [`RunSpec::replicas`] is not called: one full machine word.
pub const DEFAULT_REPLICAS: u32 = 64;

/// Seed of the *internal* RNG that lays out replica lanes on the clique.
///
/// Clique replica construction must not draw from the caller's RNG so that
/// `make_simulator(backend, config)` — which has no RNG parameter — works
/// uniformly across `Backend::ALL`. Lanes still need *distinct* layouts
/// (lanes sharing one schedule from identical states would evolve
/// identically), so they come from a fixed-seed internal stream: lane
/// layouts are deterministic in `(config, lanes)` alone. On the clique the
/// stabilization law is layout-independent (agents are exchangeable), so
/// this costs no statistical generality; lane 0 keeps the canonical block
/// layout shuffled first, matching what a scalar run under the same
/// scheduler stream would hold.
const REPLICA_CLIQUE_LAYOUT_SEED: u64 = 0x5EED_1A9E_C0DE_D001;

/// A declarative description of one USD run: configuration, engine,
/// optional topology, optional replica lanes, budget, and attached
/// instrumentation. See the [module docs](self) for the routing rules.
///
/// The builder is consumed by [`run`](RunSpec::run) /
/// [`run_keeping`](RunSpec::run_keeping) /
/// [`drive`](RunSpec::drive) (the mutable ticker/observer borrows end with
/// the run); [`build_simulator`](RunSpec::build_simulator) borrows it.
pub struct RunSpec<'a> {
    config: &'a UsdConfig,
    backend: Backend,
    topology: Option<TopologyFamily>,
    topo_seed: u64,
    replicas: Option<u32>,
    threads: usize,
    budget: u64,
    span_timing: bool,
    histograms: bool,
    ticker: Option<&'a mut dyn RunTicker>,
    observer: Option<&'a mut dyn SimObserver>,
}

/// The batch-graph engine for `states`. USD with k opinions has k + 1
/// states; alphabets past one byte route to the u16 state-packing fallback
/// instead of being rejected (twice the state-array footprint, same
/// engine).
fn batch_graph_engine(
    proto: UndecidedStateDynamics,
    graph: Graph,
    states: Vec<usize>,
) -> Box<dyn Simulator> {
    if proto.num_states() <= <u8 as StateWord>::LIMIT {
        Box::new(BatchGraphSimulator::new(proto, graph, states))
    } else {
        Box::new(WideBatchGraphSimulator::with_states(proto, graph, states))
    }
}

impl<'a> RunSpec<'a> {
    /// A run of `config` on the default engine ([`Backend::SkipAhead`],
    /// the fast USD-specialized clique engine) with an effectively
    /// unbounded budget and no instrumentation.
    pub fn new(config: &'a UsdConfig) -> Self {
        RunSpec {
            config,
            backend: Backend::SkipAhead,
            topology: None,
            topo_seed: 0,
            replicas: None,
            threads: resolve_threads(),
            budget: u64::MAX / 2,
            span_timing: false,
            histograms: false,
            ticker: None,
            observer: None,
        }
    }

    /// Select the engine (default [`Backend::SkipAhead`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Run on a [`TopologyFamily`] graph instead of the clique. The graph
    /// is deterministic in `(family, n, topo_seed)`; the initial layout is
    /// placed uniformly at random on its vertices (drawing from the run
    /// RNG). Only topology-capable backends are accepted
    /// ([`Backend::capabilities`]).
    pub fn topology(mut self, family: TopologyFamily) -> Self {
        self.topology = Some(family);
        self
    }

    /// Seed for the topology generator (default 0; ignored on the clique).
    pub fn topo_seed(mut self, seed: u64) -> Self {
        self.topo_seed = seed;
        self
    }

    /// Pack `replicas` independent lanes of the same configuration into
    /// one engine pass (1 ≤ r ≤ 64). Only [`Backend::Replica`] packs
    /// lanes (`capabilities().replicas`); every other backend accepts
    /// exactly 1. Defaults to [`DEFAULT_REPLICAS`] for the replica
    /// backend and 1 otherwise.
    pub fn replicas(mut self, replicas: u32) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Cap the worker threads of the thread-capable engines
    /// (`capabilities().threads`: the clique batch engine's
    /// hypergeometric-stream fan-out). Defaults to the process-wide
    /// resolution at builder construction — override > `USD_THREADS` >
    /// available parallelism — so engines receive the value as plain data
    /// and never read the environment themselves. Thread count is
    /// **bit-neutral** on every engine: any value produces identical
    /// trajectories; only wall-clock changes. Values are clamped to ≥ 1;
    /// thread-incapable backends ignore it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The resolved worker-thread cap this spec will hand to
    /// thread-capable engines.
    pub fn resolved_threads(&self) -> usize {
        self.threads
    }

    /// Interaction budget: the run ends at silence or once the scheduled
    /// interaction clock reaches this (default `u64::MAX / 2`). Replica
    /// runs advance the aggregate clock by `popcount(live)` per draw and
    /// may overshoot by at most `lanes - 1`.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Turn the engine's span clock on before the run (no-op unless the
    /// `span-timing` feature is compiled in).
    pub fn span_timing(mut self, on: bool) -> Self {
        self.span_timing = on;
        self
    }

    /// Turn the engine's per-event histograms on before the run.
    pub fn histograms(mut self, on: bool) -> Self {
        self.histograms = on;
        self
    }

    /// Attach a chunk-boundary [`RunTicker`] (heartbeat / flight-recorder
    /// / checkpoint hook). Forces the chunked drive loop.
    pub fn ticker(mut self, ticker: &'a mut dyn RunTicker) -> Self {
        self.ticker = Some(ticker);
        self
    }

    /// Attach a count-change [`SimObserver`]: the run drives through
    /// [`Simulator::advance_observed`], so the observer sees every
    /// counts-changing boundary at its chosen stride. An observer that
    /// returns `false` ends the run at the next chunk boundary; if the
    /// engine is not silent there, the result classifies as a timeout at
    /// the stopping clock.
    pub fn observer(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The resolved lane count: [`replicas`](RunSpec::replicas) if set
    /// (validated against the backend's `capabilities().replicas`
    /// ceiling), else [`DEFAULT_REPLICAS`] for [`Backend::Replica`] and 1
    /// otherwise.
    pub fn lanes(&self) -> u32 {
        match self.replicas {
            None => {
                if self.backend == Backend::Replica {
                    DEFAULT_REPLICAS
                } else {
                    1
                }
            }
            Some(r) => {
                assert!(r >= 1, "a run needs at least one replica lane");
                assert!(
                    r as usize <= MAX_LANES as usize,
                    "{r} replica lanes exceed the {MAX_LANES}-lane word width"
                );
                let ceiling = self.backend.capabilities().replicas;
                assert!(
                    r <= ceiling,
                    "{} cannot pack {r} replica lanes into one engine pass \
                     (its capabilities().replicas ceiling is {ceiling})",
                    self.backend
                );
                r
            }
        }
    }

    /// Construct the engine this spec describes, without driving it — the
    /// single registration point for every backend, clique or topology,
    /// scalar or replica. Clique construction draws nothing from `rng`
    /// (replica lane layouts come from an internal fixed-seed stream, see
    /// `REPLICA_CLIQUE_LAYOUT_SEED`'s docs); topology construction
    /// draws the shuffled initial layout(s) — lane 0 first for replica
    /// runs, so a scalar run from the same stream starts identically.
    pub fn build_simulator(&self, rng: &mut SimRng) -> Box<dyn Simulator> {
        match self.topology {
            None => self.build_clique(),
            Some(family) => {
                let graph = self.build_graph(family);
                self.build_on_graph(graph, rng)
            }
        }
    }

    /// Generate the topology graph, after the checks that need no
    /// allocation: the backend must run topologies, and the size must fit
    /// the graph's `u32` ids and offsets
    /// ([`TopologyFamily::check_size`]).
    fn build_graph(&self, family: TopologyFamily) -> Graph {
        assert!(
            self.backend.capabilities().topologies,
            "{} cannot run graph topologies (use agent or graph)",
            self.backend
        );
        let n = self.config.n() as usize;
        if let Err(why) = family.check_size(n) {
            panic!("{why}");
        }
        family.build(n, self.topo_seed)
    }

    fn build_clique(&self) -> Box<dyn Simulator> {
        let lanes = self.lanes();
        let proto = UndecidedStateDynamics::new(self.config.k());
        let counts = self.config.to_count_config();
        match self.backend {
            Backend::Agent => Box::new(AgentSimulator::from_config(
                proto,
                CliqueScheduler::new(self.config.n() as usize),
                &counts,
            )),
            Backend::Count => Box::new(CountSimulator::new(proto, &counts)),
            Backend::Batch => {
                Box::new(BatchSimulator::new(proto, &counts).with_threads(self.threads))
            }
            Backend::Graph | Backend::BatchGraph => {
                // Degenerate clique instance: the complete graph,
                // materialized as a Θ(n²) edge list — demo/ablation
                // territory. Refuse sizes whose edge list would silently
                // eat gigabytes; sparse topologies at large n go through
                // `RunSpec::topology`.
                assert!(
                    self.config.n() <= COMPLETE_GRAPH_MAX_N,
                    "backend '{}' on the complete graph materializes n(n-1)/2 edges; \
                     n = {} exceeds the {COMPLETE_GRAPH_MAX_N} cap (use --topology for \
                     sparse graphs, or agent/count/batch for the clique)",
                    self.backend,
                    self.config.n()
                );
                let graph = TopologyFamily::Complete.build(self.config.n() as usize, 0);
                if self.backend == Backend::Graph {
                    Box::new(GraphSimulator::from_config(proto, graph, &counts))
                } else {
                    batch_graph_engine(proto, graph, block_layout(&counts))
                }
            }
            Backend::SkipAhead => Box::new(SkipAheadSimulator::new(self.config)),
            Backend::Replica => {
                let mut layout_rng = SimRng::new(REPLICA_CLIQUE_LAYOUT_SEED);
                let layouts: Vec<Vec<usize>> = (0..lanes)
                    .map(|_| shuffled_layout(&counts, &mut layout_rng))
                    .collect();
                Box::new(ReplicaSimulator::new_clique(
                    proto,
                    self.config.n() as usize,
                    &layouts,
                ))
            }
        }
    }

    fn build_on_graph(&self, graph: Graph, rng: &mut SimRng) -> Box<dyn Simulator> {
        let lanes = self.lanes();
        let proto = UndecidedStateDynamics::new(self.config.k());
        let counts = self.config.to_count_config();
        match self.backend {
            Backend::Agent => Box::new(AgentSimulator::new(
                proto,
                GraphScheduler::new(graph),
                shuffled_layout(&counts, rng),
            )),
            Backend::Graph => {
                let states = shuffled_layout(&counts, rng);
                Box::new(GraphSimulator::new(proto, graph, states))
            }
            Backend::BatchGraph => batch_graph_engine(proto, graph, shuffled_layout(&counts, rng)),
            Backend::Replica => {
                let layouts: Vec<Vec<usize>> =
                    (0..lanes).map(|_| shuffled_layout(&counts, rng)).collect();
                Box::new(ReplicaSimulator::new_graph(proto, graph, &layouts))
            }
            _ => unreachable!("capabilities().topologies admitted {}", self.backend),
        }
    }

    /// Build the engine, drive it to stabilization, classify, and drop it.
    pub fn run(self, rng: &mut SimRng) -> StabilizationResult {
        self.run_keeping(rng).0
    }

    /// [`run`](RunSpec::run), returning the engine too, so per-engine
    /// state — telemetry, histograms, per-lane outcomes — survives the
    /// drive. The engine slot is `None` only for an edgeless topology
    /// graph (very sparse `er`): trivially silent, nothing to construct.
    pub fn run_keeping(
        mut self,
        rng: &mut SimRng,
    ) -> (StabilizationResult, Option<Box<dyn Simulator>>) {
        let k = self.config.k();
        let plurality = self.config.plurality();
        let budget = self.budget;
        let mut ticker = self.ticker.take();
        let mut observer = self.observer.take();
        match self.topology {
            Some(family) => {
                let graph = self.build_graph(family);
                if graph.num_edges() == 0 {
                    // Edgeless graph: nothing can ever interact.
                    let counts = self.config.to_count_config();
                    let result = classify_counts(counts.counts(), k, 0, true, plurality);
                    return (result, None);
                }
                if self.backend == Backend::Agent {
                    // The agentwise engine needs its concrete type kept
                    // through the drive: the count-level silence criterion
                    // inside `run_to_silence` misses frozen configurations
                    // on disconnected graphs, so its loop interleaves the
                    // exact O(m) edge scan over its states.
                    let proto = UndecidedStateDynamics::new(k);
                    let counts = self.config.to_count_config();
                    let states = shuffled_layout(&counts, rng);
                    let mut sim = AgentSimulator::new(proto, GraphScheduler::new(graph), states);
                    if self.span_timing {
                        Simulator::set_span_timing(&mut sim, true);
                    }
                    if self.histograms {
                        Simulator::set_histograms(&mut sim, true);
                    }
                    let result = drive_agent_graph_chunked(
                        &mut sim,
                        k,
                        rng,
                        budget,
                        plurality,
                        ticker.as_deref_mut(),
                        observer.as_deref_mut(),
                    );
                    return (result, Some(Box::new(sim)));
                }
                let mut sim = self.build_on_graph(graph, rng);
                if self.span_timing {
                    sim.set_span_timing(true);
                }
                if self.histograms {
                    sim.set_histograms(true);
                }
                // The graph engines (the replica engine included — its
                // periodic frozen-lane scan retires stranded lanes) detect
                // graph silence natively, so the generic chunked driver is
                // exact.
                let result = drive_chunked(
                    sim.as_mut(),
                    k,
                    rng,
                    budget,
                    plurality,
                    ticker.as_deref_mut(),
                    observer.as_deref_mut(),
                );
                (result, Some(sim))
            }
            None => {
                let mut sim = self.build_clique();
                if self.span_timing {
                    sim.set_span_timing(true);
                }
                if self.histograms {
                    sim.set_histograms(true);
                }
                let result = if ticker.is_some() || observer.is_some() {
                    drive_chunked(sim.as_mut(), k, rng, budget, plurality, ticker, observer)
                } else {
                    // No instrumentation: a single uninterrupted
                    // `run_to_silence` (chunk boundaries can truncate the
                    // leaping backends' geometric skip draws, so this
                    // distinction is observable).
                    drive_plain(sim.as_mut(), k, rng, budget, plurality)
                };
                (result, Some(sim))
            }
        }
    }

    /// Drive an *already-constructed* engine through the chunked loop this
    /// spec describes — the resume path: restore a simulator from a
    /// checkpoint, rebuild the spec, and drive. Chunk boundaries are a
    /// pure function of the absolute interaction clock, so a resumed drive
    /// re-enters the identical loop; the budget compares against the
    /// absolute clock.
    pub fn drive(mut self, sim: &mut dyn Simulator, rng: &mut SimRng) -> StabilizationResult {
        let k = self.config.k();
        let plurality = self.config.plurality();
        let ticker = self.ticker.take();
        let observer = self.observer.take();
        drive_chunked(sim, k, rng, self.budget, plurality, ticker, observer)
    }

    /// [`drive`](RunSpec::drive) for the concrete agentwise engine on an
    /// interaction graph, interleaving the exact frozen-configuration edge
    /// scan the generic loop cannot perform through the trait object.
    pub fn drive_agent_graph(
        mut self,
        sim: &mut AgentSimulator<UndecidedStateDynamics, GraphScheduler>,
        rng: &mut SimRng,
    ) -> StabilizationResult {
        let k = self.config.k();
        let plurality = self.config.plurality();
        let ticker = self.ticker.take();
        let observer = self.observer.take();
        drive_agent_graph_chunked(sim, k, rng, self.budget, plurality, ticker, observer)
    }
}

/// Records whether the wrapped observer asked to end the run, so the
/// chunked drivers can break instead of re-offering boundaries forever.
struct StopWatch<'o, 'p> {
    inner: &'o mut (dyn SimObserver + 'p),
    stopped: bool,
}

impl SimObserver for StopWatch<'_, '_> {
    fn observe(&mut self, obs: &Observation<'_>) -> bool {
        let keep = self.inner.observe(obs);
        if !keep {
            self.stopped = true;
        }
        keep
    }

    fn max_stride(&self) -> Option<u64> {
        self.inner.max_stride()
    }
}

/// Single uninterrupted `run_to_silence` + classification.
fn drive_plain(
    sim: &mut dyn Simulator,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
) -> StabilizationResult {
    let (interactions, stabilized) = sim.run_to_silence(rng, budget);
    classify_counts(sim.counts(), k, interactions, stabilized, initial_plurality)
}

/// The `~max(4n, 2¹⁶)`-chunked drive loop, with an optional ticker and
/// observer.
fn drive_chunked(
    sim: &mut dyn Simulator,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
    mut ticker: Option<&mut (dyn RunTicker + '_)>,
    mut observer: Option<&mut (dyn SimObserver + '_)>,
) -> StabilizationResult {
    let chunk = (4 * sim.population()).max(1 << 16);
    let mut stopped = false;
    let (interactions, stabilized) = loop {
        let done = sim.interactions();
        if sim.is_silent() {
            break (done, true);
        }
        if done >= budget || stopped {
            break (done, false);
        }
        let horizon = ticker.as_deref().map_or(u64::MAX, |t| t.horizon(done));
        let step = chunk.min(budget - done).min(horizon).max(1);
        match observer.as_deref_mut() {
            Some(obs) => {
                let mut watch = StopWatch {
                    inner: obs,
                    stopped: false,
                };
                sim.advance_observed(rng, step, &mut watch);
                stopped = watch.stopped;
            }
            None => {
                sim.run_to_silence(rng, step);
            }
        }
        if let Some(t) = ticker.as_deref_mut() {
            t.tick(sim);
            t.checkpoint_tick(sim, rng);
        }
    };
    classify_counts(sim.counts(), k, interactions, stabilized, initial_plurality)
}

/// Whether no edge of `graph` can change any state under `proto` — the
/// exact graph-silence criterion, from explicit per-agent states.
fn graph_silent(proto: &UndecidedStateDynamics, graph: &Graph, states: &[usize]) -> bool {
    graph.edges().iter().all(|&(a, b)| {
        let (sa, sb) = (states[a as usize], states[b as usize]);
        proto.is_noop(sa, sb) && proto.is_noop(sb, sa)
    })
}

/// Chunked drive of the concrete agentwise engine on an interaction graph,
/// with an optional ticker and observer. The count-level silence criterion inside
/// `run_to_silence` misses frozen configurations on disconnected graphs,
/// so chunk boundaries interleave the exact O(m) edge scan.
fn drive_agent_graph_chunked(
    sim: &mut AgentSimulator<UndecidedStateDynamics, GraphScheduler>,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
    mut ticker: Option<&mut (dyn RunTicker + '_)>,
    mut observer: Option<&mut (dyn SimObserver + '_)>,
) -> StabilizationResult {
    let chunk = (4 * Simulator::population(sim)).max(1 << 16);
    let mut stopped = false;
    let (interactions, stabilized) = loop {
        let done = Simulator::interactions(sim);
        if Simulator::is_silent(sim)
            || graph_silent(sim.protocol(), sim.scheduler().graph(), sim.states())
        {
            break (done, true);
        }
        if done >= budget || stopped {
            break (done, false);
        }
        let horizon = ticker.as_deref().map_or(u64::MAX, |t| t.horizon(done));
        let step = chunk.min(budget - done).min(horizon).max(1);
        match observer.as_deref_mut() {
            Some(obs) => {
                let mut watch = StopWatch {
                    inner: obs,
                    stopped: false,
                };
                Simulator::advance_observed(sim, rng, step, &mut watch);
                stopped = watch.stopped;
            }
            None => {
                sim.run_to_silence(rng, step);
            }
        }
        if let Some(t) = ticker.as_deref_mut() {
            t.tick(sim);
            t.checkpoint_tick(sim, rng);
        }
    };
    classify_counts(
        Simulator::counts(sim),
        k,
        interactions,
        stabilized,
        initial_plurality,
    )
}

/// The outcome of one replica lane, classified exactly as a scalar run
/// would be: counts at the end of the drive, stabilization clock in the
/// lane's *private* interaction clock (the shared draw clock — directly
/// comparable to a scalar run's interaction count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneOutcome {
    /// The lane index (bit position in the packed words).
    pub lane: u32,
    /// The lane's classified result. For a lane still running at the end
    /// of the drive the outcome is a timeout at the current draw clock.
    pub result: StabilizationResult,
}

/// Per-lane results of a replica ensemble run, read off a kept engine.
///
/// The *aggregate* [`StabilizationResult`] a replica drive returns
/// classifies the lane-summed counts: it is consensus only when every lane
/// elected the *same* winner, and otherwise reports a frozen mixture even
/// though each individual lane stabilized cleanly. This type recovers what
/// the ensemble actually measured — one classified outcome per lane —
/// which is what the statistical consumers (KS suites, `topology_sweep`
/// cells, `sim_stats` summaries) want.
///
/// Built generically from the [`Simulator`] lane accessors, so it also
/// works on scalar engines (a 1-lane ensemble).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleOutcome {
    /// One classified outcome per lane, in lane order.
    pub lanes: Vec<LaneOutcome>,
}

impl EnsembleOutcome {
    /// Read the per-lane outcomes off a driven engine. `k` is the opinion
    /// count; `initial_plurality` feeds each lane's plurality bookkeeping
    /// (every lane starts from a permutation of the same configuration, so
    /// one value serves all lanes).
    pub fn from_simulator(
        sim: &dyn Simulator,
        k: usize,
        initial_plurality: Option<usize>,
    ) -> EnsembleOutcome {
        let lanes = (0..sim.lanes())
            .map(|lane| {
                let counts = sim.lane_counts(lane);
                let stabilized_at = sim.lane_stabilized_at(lane);
                let clock = stabilized_at.unwrap_or_else(|| sim.lane_clock());
                LaneOutcome {
                    lane,
                    result: classify_counts(
                        &counts,
                        k,
                        clock,
                        stabilized_at.is_some(),
                        initial_plurality,
                    ),
                }
            })
            .collect();
        EnsembleOutcome { lanes }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the ensemble has no lanes (it never does when read off an
    /// engine, but `Vec`-like types carry the pair).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// How many lanes stabilized within the budget.
    pub fn stabilized_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.result.stabilized()).count()
    }

    /// Whether every lane stabilized within the budget.
    pub fn all_stabilized(&self) -> bool {
        self.stabilized_lanes() == self.lanes.len()
    }

    /// The stabilization clocks of the lanes that stabilized, in lane
    /// order, as `f64` — the sample the `sim_stats` summaries and KS
    /// comparisons consume.
    pub fn stabilization_times(&self) -> Vec<f64> {
        self.lanes
            .iter()
            .filter(|l| l.result.stabilized())
            .map(|l| l.result.interactions as f64)
            .collect()
    }

    /// How many lanes elected `opinion`.
    pub fn wins_for(&self, opinion: usize) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.result.outcome == crate::stabilization::ConsensusOutcome::Winner(opinion))
            .count()
    }

    /// How many lanes the initial plurality opinion won.
    pub fn plurality_wins(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.result.plurality_won())
            .count()
    }
}
