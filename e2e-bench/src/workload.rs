//! The four pinned workloads, and one stabilization run of each: built and
//! driven through the public entry points `usd-sim run` uses, checked, and
//! optionally traced layer by layer from outside.

use std::time::Instant;

use pop_proto::simulator::shuffled_layout;
use pop_proto::{BatchGraphSimulator, EngineTelemetry, Simulator, TopologyFamily};
use sim_stats::rng::SimRng;
use usd_core::backend::RunTicker;
use usd_core::init::figure1_setup;
use usd_core::{
    Backend, ConsensusOutcome, EnsembleOutcome, InitialConfigBuilder, RunSpec, StabilizationResult,
    UndecidedStateDynamics, UsdConfig,
};

/// What a workload runs. Sizes live in [`Workload::n`] so the tiny test
/// variants share every code path with the measured ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Random 8-regular graph, k = 2, Figure-1 bias, shuffled layout.
    Reg8,
    /// √n × √n torus, all opinion 0 except one `patch` × `patch` square
    /// of opinion 1 in the corner.
    TorusEndgame { patch: usize },
    /// Clique, `figure1_setup(n)`.
    CliqueFig1,
    /// Clique, `figure1_setup(n)`, `lanes` bit-sliced replica lanes.
    EnsembleClique { lanes: u32 },
}

/// One pinned workload definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Population size (a perfect square for the torus).
    pub n: u64,
    pub backend: Backend,
    /// Worker-thread cap handed to `RunSpec::threads`, before clamping to
    /// the host's core count.
    pub threads: usize,
    /// Stabilization runs per iteration; each iteration repeats the same
    /// seed list.
    pub seeds_per_iter: usize,
    /// The run budget in scheduled interactions is `budget_per_agent · n`
    /// (lane-weighted on the replica engine): far above every observed
    /// stabilization time, so a run that hits it is a failure.
    pub budget_per_agent: u64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "reg8-1m",
        kind: Kind::Reg8,
        n: 1_000_000,
        backend: Backend::BatchGraph,
        threads: 1,
        seeds_per_iter: 2,
        budget_per_agent: 2_000,
    },
    Workload {
        name: "torus-endgame",
        kind: Kind::TorusEndgame { patch: 128 },
        n: 1 << 18,
        backend: Backend::BatchGraph,
        threads: 1,
        seeds_per_iter: 2,
        budget_per_agent: 1_000_000,
    },
    Workload {
        name: "clique-fig1",
        kind: Kind::CliqueFig1,
        n: 250_000,
        backend: Backend::Batch,
        threads: 2,
        seeds_per_iter: 12,
        budget_per_agent: 2_000,
    },
    Workload {
        name: "ensemble-clique",
        kind: Kind::EnsembleClique { lanes: 64 },
        n: 100_000,
        backend: Backend::Replica,
        threads: 1,
        seeds_per_iter: 4,
        budget_per_agent: 64 * 2_000,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: derives independent run and topology seeds from the
/// benchmark's `--seed`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One run's seeds: the run RNG and the topology generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeed {
    pub rng: u64,
    pub topo: u64,
}

impl Workload {
    /// The same instance at a size a unit test runs in milliseconds.
    #[cfg(test)]
    pub fn tiny(self) -> Workload {
        let (kind, n) = match self.kind {
            Kind::Reg8 => (Kind::Reg8, 2_000),
            Kind::TorusEndgame { .. } => (Kind::TorusEndgame { patch: 8 }, 32 * 32),
            Kind::CliqueFig1 => (Kind::CliqueFig1, 4_000),
            Kind::EnsembleClique { lanes } => (Kind::EnsembleClique { lanes }, 2_000),
        };
        Workload {
            kind,
            n,
            seeds_per_iter: 2,
            ..self
        }
    }

    /// The fixed seed list every iteration of a run replays.
    pub fn seeds(&self, seed: u64) -> Vec<RunSeed> {
        let base = self
            .name
            .bytes()
            .fold(splitmix64(seed), |h, b| splitmix64(h ^ u64::from(b)));
        (0..self.seeds_per_iter as u64)
            .map(|i| {
                let rng = splitmix64(base.wrapping_add(i));
                RunSeed {
                    rng,
                    topo: splitmix64(rng),
                }
            })
            .collect()
    }

    /// The initial configuration.
    pub fn config(&self) -> UsdConfig {
        match self.kind {
            Kind::Reg8 => InitialConfigBuilder::new(self.n, 2).figure1(),
            Kind::TorusEndgame { patch } => {
                let minority = (patch * patch) as u64;
                UsdConfig::decided(vec![self.n - minority, minority])
            }
            Kind::CliqueFig1 | Kind::EnsembleClique { .. } => figure1_setup(self.n).1,
        }
    }

    pub fn budget(&self) -> u64 {
        self.budget_per_agent * self.n
    }

    /// The run description both setup and drive go through.
    pub fn spec<'a>(&self, config: &'a UsdConfig, seed: RunSeed, threads: usize) -> RunSpec<'a> {
        let spec = RunSpec::new(config)
            .backend(self.backend)
            .threads(threads)
            .budget(self.budget());
        match self.kind {
            Kind::Reg8 => spec
                .topology(TopologyFamily::Regular { d: 8 })
                .topo_seed(seed.topo),
            Kind::EnsembleClique { lanes } => spec.replicas(lanes),
            Kind::TorusEndgame { .. } | Kind::CliqueFig1 => spec,
        }
    }

    /// The torus endgame's explicit per-agent states (row-major).
    fn patch_states(&self, patch: usize) -> Vec<usize> {
        let side = (self.n as f64).sqrt() as usize;
        assert_eq!(side * side, self.n as usize, "torus n must be a square");
        let mut states = vec![0usize; self.n as usize];
        for row in states.chunks_mut(side).take(patch) {
            row[..patch].fill(1);
        }
        states
    }

    /// Config → built engine: `RunSpec::build_simulator`, or for the torus
    /// endgame (a layout no `RunSpec` describes) the topology generator and
    /// the engine constructor it would call.
    pub fn build(&self, config: &UsdConfig, seed: RunSeed, threads: usize) -> Built {
        let mut rng = SimRng::new(seed.rng);
        let sim = match self.kind {
            Kind::TorusEndgame { patch } => {
                let graph = TopologyFamily::Torus.build(self.n as usize, seed.topo);
                let proto = UndecidedStateDynamics::new(config.k());
                Box::new(BatchGraphSimulator::new(
                    proto,
                    &graph,
                    self.patch_states(patch),
                )) as Box<dyn Simulator>
            }
            _ => self.spec(config, seed, threads).build_simulator(&mut rng),
        };
        Built { sim, rng }
    }

    /// [`build`](Workload::build) split into its layers, each timed from
    /// outside. The engine and the run RNG come out draw-for-draw
    /// identical to the untraced build.
    pub fn build_traced(
        &self,
        config: &UsdConfig,
        seed: RunSeed,
        threads: usize,
    ) -> (Built, SetupTrace) {
        let mut rng = SimRng::new(seed.rng);
        let mut trace = SetupTrace::default();
        let proto = UndecidedStateDynamics::new(config.k());
        let graph_run = |family: TopologyFamily,
                         trace: &mut SetupTrace,
                         layout: &mut dyn FnMut() -> Vec<usize>| {
            let (graph, s) = timed(|| family.build(self.n as usize, seed.topo));
            trace.topology_s = s;
            let (states, s) = timed(layout);
            trace.layout_s = s;
            let (sim, ctor_s) = timed(|| BatchGraphSimulator::new(proto, &graph, states));
            // A standalone CSR build: the call the engine constructor makes
            // internally, timed on its own after it, so the constructor
            // meets the heap the untraced build leaves it.
            let (csr, s) = timed(|| graph.csr_adjacency());
            trace.csr_s = s;
            trace.init_s = ctor_s - s;
            trace.edges = graph.num_edges() as u64;
            trace.csr_bytes = (csr.0.len() * std::mem::size_of::<u32>()
                + csr.1.len() * std::mem::size_of::<(u32, u32)>())
                as u64;
            Box::new(sim) as Box<dyn Simulator>
        };
        let sim = match self.kind {
            Kind::Reg8 => {
                let counts = config.to_count_config();
                graph_run(TopologyFamily::Regular { d: 8 }, &mut trace, &mut || {
                    shuffled_layout(&counts, &mut rng)
                })
            }
            Kind::TorusEndgame { patch } => {
                graph_run(TopologyFamily::Torus, &mut trace, &mut || {
                    self.patch_states(patch)
                })
            }
            Kind::CliqueFig1 => {
                let spec = self.spec(config, seed, threads);
                let (sim, s) = timed(|| spec.build_simulator(&mut rng));
                trace.init_s = s;
                sim
            }
            Kind::EnsembleClique { lanes } => {
                let spec = self.spec(config, seed, threads);
                let (sim, s) = timed(|| spec.build_simulator(&mut rng));
                // The engine draws its lane layouts from a private stream;
                // the same number of layouts from a side stream stands in
                // for them, and the rest of the build is engine init.
                let counts = config.to_count_config();
                let mut side = SimRng::new(seed.topo);
                let (_, layouts_s) = timed(|| {
                    (0..lanes)
                        .map(|_| shuffled_layout(&counts, &mut side).len())
                        .sum::<usize>()
                });
                trace.layout_s = layouts_s;
                trace.init_s = s - layouts_s;
                sim
            }
        };
        (Built { sim, rng }, trace)
    }

    /// One untraced stabilization run: build, drive, classify, check.
    pub fn run_plain(&self, config: &UsdConfig, seed: RunSeed, threads: usize) -> SeedRun {
        let t0 = Instant::now();
        let Built { mut sim, mut rng } = self.build(config, seed, threads);
        let t1 = Instant::now();
        let result = self
            .spec(config, seed, threads)
            .drive(sim.as_mut(), &mut rng);
        let t2 = Instant::now();
        let verdict = self.check(sim.as_ref(), &result);
        let scheduled = sim.interactions();
        let effective = sim.effective_interactions();
        drop(sim);
        SeedRun {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
            scheduled,
            effective,
            result,
            verdict,
        }
    }

    /// One traced stabilization run: the same build and drive as
    /// [`run_plain`](Workload::run_plain), split into layers and observed
    /// at every chunk boundary.
    pub fn run_traced(&self, config: &UsdConfig, seed: RunSeed, threads: usize) -> TracedRun {
        let t0 = Instant::now();
        let (Built { mut sim, mut rng }, setup) = self.build_traced(config, seed, threads);
        let t1 = Instant::now();
        let mut chunks = ChunkTimer::new();
        let result = self
            .spec(config, seed, threads)
            .ticker(&mut chunks)
            .drive(sim.as_mut(), &mut rng);
        let t2 = Instant::now();
        let verdict = self.check(sim.as_ref(), &result);
        let telemetry = *sim.telemetry();
        let (tail_ratio, straggler_s) = lane_tail(sim.as_ref(), &chunks.marks);
        drop(sim);
        TracedRun {
            plain: SeedRun {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                total_s: t0.elapsed().as_secs_f64(),
                scheduled: telemetry.scheduled,
                effective: telemetry.effective,
                result,
                verdict,
            },
            setup,
            chunks,
            telemetry,
            tail_ratio,
            straggler_s,
        }
    }

    /// The one-shot `RunSpec` path the split build + drive must agree
    /// with. Clique runs attach a no-op ticker, which selects the chunked
    /// loop `RunSpec::drive` uses without moving a chunk boundary. `None`
    /// for the torus endgame, whose explicit layout no `RunSpec` describes.
    pub fn run_oneshot(
        &self,
        config: &UsdConfig,
        seed: RunSeed,
        threads: usize,
    ) -> Option<StabilizationResult> {
        let mut rng = SimRng::new(seed.rng);
        let mut noop = |_: &dyn Simulator| {};
        match self.kind {
            Kind::TorusEndgame { .. } => None,
            Kind::Reg8 => Some(self.spec(config, seed, threads).run(&mut rng)),
            Kind::CliqueFig1 | Kind::EnsembleClique { .. } => Some(
                self.spec(config, seed, threads)
                    .ticker(&mut noop)
                    .run(&mut rng),
            ),
        }
    }

    /// The correctness check every run passes: silence within budget, and
    /// every lane a single-opinion consensus whose counts sum to n.
    fn check(&self, sim: &dyn Simulator, result: &StabilizationResult) -> Result<(), String> {
        if !result.stabilized() {
            return Err(format!(
                "no silence within the budget of {} interactions",
                self.budget()
            ));
        }
        let config = self.config();
        let ensemble = EnsembleOutcome::from_simulator(sim, config.k(), config.plurality());
        for lane in &ensemble.lanes {
            let sum: u64 = sim.lane_counts(lane.lane).iter().sum();
            if sum != self.n {
                return Err(format!(
                    "lane {} counts sum to {sum}, not n = {}",
                    lane.lane, self.n
                ));
            }
            if !matches!(lane.result.outcome, ConsensusOutcome::Winner(_)) {
                return Err(format!(
                    "lane {} ended {:?}, not a single-opinion consensus",
                    lane.lane, lane.result.outcome
                ));
            }
        }
        Ok(())
    }
}

/// A built engine and the run RNG positioned where its drive starts.
pub struct Built {
    pub sim: Box<dyn Simulator>,
    pub rng: SimRng,
}

/// Outcome and timings of one untraced stabilization run.
#[derive(Debug, Clone)]
pub struct SeedRun {
    pub setup_s: f64,
    pub run_s: f64,
    /// Setup, drive, checks and teardown.
    pub total_s: f64,
    /// Scheduled interactions (lane-weighted on the replica engine).
    pub scheduled: u64,
    pub effective: u64,
    pub result: StabilizationResult,
    pub verdict: Result<(), String>,
}

/// Setup-layer timings of one traced build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTrace {
    pub topology_s: f64,
    pub csr_s: f64,
    pub edges: u64,
    /// CSR array sizes times element sizes: computed, not measured.
    pub csr_bytes: u64,
    pub layout_s: f64,
    pub init_s: f64,
}

/// A traced run: the plain figures plus what the layers reported.
pub struct TracedRun {
    pub plain: SeedRun,
    pub setup: SetupTrace,
    pub chunks: ChunkTimer,
    pub telemetry: EngineTelemetry,
    pub tail_ratio: f64,
    pub straggler_s: f64,
}

/// A [`RunTicker`] with the default (unbounded) horizon: it sees every
/// chunk boundary of the drive without moving one, and attributes each
/// chunk's wall time by the engine counters that moved in it.
pub struct ChunkTimer {
    start: Instant,
    last: Instant,
    prev: EngineTelemetry,
    /// (seconds since the drive started, lane clock) at the start and at
    /// every chunk boundary.
    marks: Vec<(f64, u64)>,
    pub chunks: u64,
    /// Wall time of chunks whose dense counters moved.
    pub dense_s: f64,
    /// Dense blocks run in those chunks.
    pub dense_blocks: u64,
    /// Wall time of chunks whose sparse-event counter moved.
    pub sparse_s: f64,
    pub sparse_events: u64,
}

impl ChunkTimer {
    /// A timer for a drive that starts now, on a fresh engine.
    fn new() -> Self {
        let now = Instant::now();
        ChunkTimer {
            start: now,
            last: now,
            prev: EngineTelemetry::new(),
            marks: vec![(0.0, 0)],
            chunks: 0,
            dense_s: 0.0,
            dense_blocks: 0,
            sparse_s: 0.0,
            sparse_events: 0,
        }
    }
}

impl RunTicker for ChunkTimer {
    fn tick(&mut self, sim: &dyn Simulator) {
        let now = Instant::now();
        let chunk_s = (now - self.last).as_secs_f64();
        let t = *sim.telemetry();
        let p = &self.prev;
        self.chunks += 1;
        if t.dense_steps != p.dense_steps || t.blocks != p.blocks {
            self.dense_s += chunk_s;
            self.dense_blocks += t.blocks - p.blocks;
        }
        if t.sparse.events != p.sparse.events {
            self.sparse_s += chunk_s;
            self.sparse_events += t.sparse.events - p.sparse.events;
        }
        self.marks
            .push(((now - self.start).as_secs_f64(), sim.lane_clock()));
        self.prev = t;
        // The next chunk starts after this bookkeeping.
        self.last = Instant::now();
    }
}

/// `(tail_ratio, straggler_s)` of a finished drive: the last lane's
/// stabilization clock over the median lane's, and the wall time from the
/// median lane's retirement to the end of the drive. A chunk can span the
/// whole tail (the aggregate clock that sizes chunks slows as lanes
/// retire), so the retirement time is interpolated between the chunk
/// boundaries around it at a constant draw rate. `(1, 0)` for one lane.
fn lane_tail(sim: &dyn Simulator, marks: &[(f64, u64)]) -> (f64, f64) {
    let mut clocks: Vec<u64> = (0..sim.lanes())
        .filter_map(|lane| sim.lane_stabilized_at(lane))
        .collect();
    if clocks.len() < 2 || clocks.len() < sim.lanes() as usize {
        return (1.0, 0.0);
    }
    clocks.sort_unstable();
    let median = clocks[clocks.len() / 2];
    let last = clocks[clocks.len() - 1];
    // marks[0] is (0, 0) and the last mark's clock is at least `last`.
    let i = marks.partition_point(|&(_, clock)| clock < median);
    let ((t0, c0), (t1, c1)) = (marks[i - 1], marks[i]);
    let retired_at = t0 + (t1 - t0) * (median - c0) as f64 / (c1 - c0) as f64;
    let end = marks[marks.len() - 1].0;
    (last as f64 / median as f64, end - retired_at)
}

/// Run `f`, returning its value and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
