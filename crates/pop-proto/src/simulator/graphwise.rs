//! Active-edge exact simulator for graph-restricted schedulers: the
//! per-draw dense strategy on the shared graph core.
//!
//! Under [`GraphScheduler`](crate::scheduler::GraphScheduler) every
//! scheduled interaction picks a uniform edge and a uniform orientation.
//! [`GraphSimulator`] keeps its state, graph, clocks and sparse phase in
//! the shared graph core (the private `graph_core` module, which it shares
//! with [`BatchGraphSimulator`](super::BatchGraphSimulator)) and adds only
//! its dense strategy:
//!
//! * **dense phase**: interactions are simulated literally — a uniform
//!   edge and orientation per step, O(1), *no* weight bookkeeping — so on
//!   effective-dominated stretches (USD's bulk phase on expanders has a
//!   30–55% effective fraction) the engine matches the agentwise cost
//!   instead of paying per-edge updates that buy nothing. A run of
//!   consecutive no-op draws long enough to certify a collapsed activity
//!   fraction triggers the sparse phase (the failed draws *are* scheduled
//!   no-op interactions, so nothing is wasted or approximated);
//! * **sparse phase** (the core's): the per-edge active-orientation
//!   weights (0, 1, or 2) go to the shared
//!   [`SparseSkipper`](super::sparse) — each no-op run is skipped in O(1)
//!   (geometric with success probability `W / 2m`), the effective edge is
//!   sampled in O(log m) from the exact weighted law, and the re-weighting
//!   of the ≤ d incident edges of a changed agent is deferred into
//!   coalesced batched passes. This engine steps it **one event at a
//!   time**, which keeps its observation exact. When the activity fraction
//!   recovers past a hysteresis threshold the tree is dropped and the
//!   dense phase resumes.
//!
//! On no-op-dominated regimes (low-conductance families like the cycle and
//! torus spend > 99% of their schedule on no-ops; any topology's endgame
//! collapses to a few active edges) the scheduled-to-effective ratio is
//! what separates this engine from the per-interaction agentwise engine.
//!
//! # Exactness
//!
//! The geometric skip is the exact law of the embedded no-op run (the same
//! inversion `usd-core`'s `SkipAheadSimulator` and `BatchSimulator` use), and the effective
//! interaction is drawn from the exact conditional law (edge ∝ its active
//! orientation count, then a uniform active orientation of that edge), so
//! the induced chain on agent states is identical to driving
//! [`AgentSimulator`](crate::simulator::AgentSimulator) with a
//! [`GraphScheduler`](crate::scheduler::GraphScheduler) — verified by KS
//! tests in `tests/topology_equivalence.rs`. Silence is the graph notion
//! (`W = 0`, see [`GraphSimulator::is_silent`]).

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::graph::CsrGraph;
use crate::protocol::Protocol;
use crate::simulator::graph_core::{block_layout, shuffled_layout, GraphCore};
use crate::simulator::sparse::SPARSE_TRIGGER_NOOPS;
use crate::simulator::{snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Exact active-edge simulator for a fixed interaction graph.
///
/// Memory is O(n + m); the dense phase costs O(1) per scheduled
/// interaction and the sparse phase O(d log m) per **effective**
/// interaction, where `d` is the degree of the two agents that changed.
/// See the module docs for the phase machinery and its exactness
/// argument.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): **exact** —
/// both phases return at the first effective event (the dense phase stops
/// its literal stepping there, the sparse phase applies exactly one), so
/// observers see every effective event individually with the preceding
/// no-op run folded into the scheduled delta.
#[derive(Debug, Clone)]
pub struct GraphSimulator<P: Protocol> {
    /// States (one `u32` per agent), graph, clocks and sparse phase.
    core: GraphCore<P, u32>,
}

impl<P: Protocol> GraphSimulator<P> {
    /// Create from explicit per-agent states (dense indices). The graph
    /// must have at least one edge and as many vertices as there are
    /// states. An owned [`Graph`](crate::Graph) moves its edge list and
    /// CSR into the engine; a `&Graph` is copied (see [`CsrGraph`]).
    pub fn new(protocol: P, graph: impl Into<CsrGraph>, states: Vec<usize>) -> Self {
        GraphSimulator {
            core: GraphCore::new(protocol, graph, states),
        }
    }

    /// Create from a count configuration with a uniformly shuffled agent
    /// layout. On non-clique topologies the layout matters (states are not
    /// exchangeable across vertices), so a uniform random placement is the
    /// canonical initial law; a block layout would correlate states with
    /// the generator's vertex numbering.
    pub fn from_config_shuffled(
        protocol: P,
        graph: impl Into<CsrGraph>,
        config: &CountConfig,
        rng: &mut SimRng,
    ) -> Self {
        Self::new(protocol, graph, shuffled_layout(config, rng))
    }

    /// Create from a count configuration with a block layout (agents
    /// `0..c₀` in state 0, the next `c₁` in state 1, …). Only appropriate
    /// when the layout is irrelevant — i.e. the complete graph; prefer
    /// [`GraphSimulator::from_config_shuffled`] for real topologies.
    pub fn from_config(protocol: P, graph: impl Into<CsrGraph>, config: &CountConfig) -> Self {
        Self::new(protocol, graph, block_layout(config))
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.core.protocol
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.core.states.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.core.edges.len()
    }

    /// The state index of one agent.
    pub fn state_of_agent(&self, v: usize) -> usize {
        self.core.states[v] as usize
    }

    /// Per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.core.counts
    }

    /// Current count configuration (copies counts).
    pub fn config(&self) -> CountConfig {
        CountConfig::from_counts(self.core.counts.clone())
    }

    /// Total interactions simulated (including no-ops).
    pub fn interactions(&self) -> u64 {
        self.core.interactions
    }

    /// Interactions that changed the configuration.
    pub fn effective_interactions(&self) -> u64 {
        self.core.effective_interactions
    }

    /// Total number of active orientations `W` (0 iff silent). O(1) in the
    /// sparse phase; scans the edges in the dense phase, where `W` is not
    /// maintained.
    pub fn active_weight(&self) -> u64 {
        self.core.active_weight()
    }

    /// Parallel time elapsed (= interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.core.interactions as f64 / self.core.states.len() as f64
    }

    /// Whether the configuration is silent *for this graph*: no scheduled
    /// interaction can change it (`W = 0`).
    ///
    /// Sparse phase: exact (`W == 0`). Dense phase: the count-level clique
    /// criterion, which is sufficient (clique silence implies graph
    /// silence) but can miss a frozen configuration on a *disconnected*
    /// graph; driver loops still terminate because the dense phase's
    /// no-op-run trigger escalates such configurations to the sparse phase.
    pub fn is_silent(&self) -> bool {
        self.core.is_silent()
    }

    /// Verify the sparse skipper (if live) against per-edge weights
    /// recomputed from the states — the deferred-update invariants the
    /// property tests pin. O(m); `Ok` when the dense phase is active.
    #[doc(hidden)]
    pub fn validate_sparse_invariants(&self) -> Result<(), String> {
        self.core.validate_sparse_invariants()
    }

    /// Simulate exactly one scheduled interaction (uniform edge, uniform
    /// orientation — the literal [`GraphScheduler`] law); returns whether
    /// it changed the configuration.
    ///
    /// [`GraphScheduler`]: crate::scheduler::GraphScheduler
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        let core = &mut self.core;
        core.interactions += 1;
        core.telemetry.scheduled += 1;
        core.telemetry.dense_steps += 1;
        core.telemetry.pair_draws += 1;
        let (a, b) = core.edges[rng.index(core.edges.len())];
        let (i, j) = if rng.bernoulli(0.5) {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        core.apply_oriented(i, j)
    }

    /// Advance by at most `max` interactions using the cheapest exact
    /// mechanism for the current activity level (literal dense stepping or
    /// the sparse skipper, one event at a time). Returns interactions
    /// advanced and whether the counts changed. On a certified-silent
    /// configuration the clock stops: the call returns without advancing
    /// (possibly `(0, false)`), and `is_silent()` is true.
    pub fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let out = self.advance_changed_impl(rng, max);
        self.core.harvest_sparse_stats();
        out
    }

    fn advance_changed_impl(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let mut advanced = 0u64;
        loop {
            if let Some((leapt, changed)) = self.core.sparse_turn(rng, max - advanced, 1) {
                return (advanced + leapt, changed);
            }
            // Dense phase: literal scheduled draws, O(1) each. A long
            // enough run of consecutive no-ops certifies a collapsed
            // activity fraction (or silence) and escalates to the sparse
            // skipper on the next loop turn.
            let t0 = self.core.telemetry.clock.start();
            let mut effective_at: Option<u64> = None;
            while advanced < max {
                advanced += 1;
                if self.step(rng) {
                    if let Some(h) = &mut self.core.hist {
                        // The literally-counted dense no-op run before this
                        // effective event — the same quantity the sparse
                        // phase samples geometrically.
                        h.skip_len.add_u64(self.core.noop_run as u64);
                    }
                    self.core.noop_run = 0;
                    effective_at = Some(advanced);
                    break;
                }
                self.core.noop_run += 1;
                if self.core.noop_run >= SPARSE_TRIGGER_NOOPS {
                    self.core.enter_sparse();
                    break;
                }
            }
            self.core.telemetry.spans.dense_ns += self.core.telemetry.clock.elapsed_ns(t0);
            if let Some(done) = effective_at {
                return (done, true);
            }
            if advanced >= max {
                return (max, false);
            }
        }
    }
}

impl<P: Protocol> Simulator for GraphSimulator<P> {
    fn population(&self) -> u64 {
        self.core.states.len() as u64
    }

    fn num_states(&self) -> usize {
        self.core.k
    }

    fn counts(&self) -> &[u64] {
        &self.core.counts
    }

    fn interactions(&self) -> u64 {
        self.core.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.core.effective_interactions
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        GraphSimulator::step(self, rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        GraphSimulator::advance_changed(self, rng, max)
    }

    fn is_silent(&self) -> bool {
        self.core.is_silent()
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.core.telemetry
    }

    fn set_span_timing(&mut self, enabled: bool) {
        self.core.telemetry.clock.enabled = enabled;
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.core.set_histograms(enabled);
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.core.histograms()
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        self.core.write_snapshot(w, snapshot_tags::GRAPH);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        self.core.read_snapshot(r, snapshot_tags::GRAPH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::protocol::OneWayEpidemic;
    use crate::scheduler::GraphScheduler;

    fn epidemic_on(graph: &Graph, infected: usize) -> GraphSimulator<OneWayEpidemic> {
        let mut states = vec![1usize; graph.n()];
        for s in states.iter_mut().take(infected) {
            *s = 0;
        }
        GraphSimulator::new(OneWayEpidemic, graph, states)
    }

    #[test]
    fn initial_active_weight_counts_boundary_orientations() {
        // Path 0-1-2-3 with agent 0 infected: only edge (0,1) is active,
        // in both orientations (epidemic is symmetric in effect).
        let g = Graph::path(4);
        let sim = epidemic_on(&g, 1);
        assert_eq!(sim.active_weight(), 2);
        assert!(!sim.is_silent());
    }

    #[test]
    fn epidemic_on_cycle_completes_and_counts_events() {
        let g = Graph::cycle(50);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(1);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        assert_eq!(sim.counts(), &[50, 0]);
        // One infection per susceptible agent.
        assert_eq!(sim.effective_interactions(), 49);
        assert_eq!(sim.active_weight(), 0);
    }

    #[test]
    fn step_matches_scheduler_law_on_interaction_counts() {
        // Driving with single steps must give the same infection law as an
        // AgentSimulator over the same GraphScheduler (here: compare mean
        // completion interactions on a small cycle).
        let reps = 200u64;
        let mut graphwise_mean = 0.0;
        let mut agentwise_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(16);
            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.step(&mut rng);
            }
            graphwise_mean += sim.interactions() as f64;

            let g = Graph::cycle(16);
            let mut states = vec![1usize; 16];
            states[0] = 0;
            let mut reference = crate::simulator::AgentSimulator::new(
                OneWayEpidemic,
                GraphScheduler::new(g),
                states,
            );
            let mut rng = SimRng::new(seed + 10_000);
            while reference.counts()[0] < 16 {
                crate::simulator::Simulator::step(&mut reference, &mut rng);
            }
            agentwise_mean += reference.interactions() as f64;
        }
        graphwise_mean /= reps as f64;
        agentwise_mean /= reps as f64;
        let rel = (graphwise_mean - agentwise_mean).abs() / agentwise_mean;
        assert!(
            rel < 0.06,
            "graphwise {graphwise_mean} vs agentwise {agentwise_mean}"
        );
    }

    #[test]
    fn skip_clock_matches_single_step_clock_in_distribution() {
        // The geometric skip must preserve the *total interaction* clock:
        // mean completion interactions via advance() equals via step().
        let reps = 300u64;
        let mut skip_mean = 0.0;
        let mut step_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(24);
            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            skip_mean += sim.interactions() as f64;

            let g = Graph::cycle(24);
            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed + 777_777);
            while !sim.is_silent() {
                sim.step(&mut rng);
            }
            step_mean += sim.interactions() as f64;
        }
        skip_mean /= reps as f64;
        step_mean /= reps as f64;
        let rel = (skip_mean - step_mean).abs() / step_mean;
        assert!(rel < 0.06, "skip {skip_mean} vs step {step_mean}");
    }

    #[test]
    fn advance_respects_max_and_truncates_exactly() {
        let g = Graph::cycle(1000);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(3);
        for max in [1u64, 7, 100, 10_000] {
            let before = sim.interactions();
            let (advanced, _) = sim.advance_changed(&mut rng, max);
            assert!(advanced >= 1 && advanced <= max, "advanced {advanced}");
            assert_eq!(sim.interactions() - before, advanced);
        }
    }

    #[test]
    fn sparse_phase_invariants_hold_across_advancements() {
        // A creeping epidemic frontier on a large cycle keeps the run in
        // the sparse skipper; the deferred-update invariants (exact
        // incremental total, sidecar-tracked weights, clean tree entries)
        // must hold at every advancement boundary.
        let g = Graph::cycle(1_024);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(13);
        let mut checked = 0u32;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            sim.validate_sparse_invariants().unwrap();
            checked += 1;
        }
        // The graphwise engine returns per effective event, so nearly
        // every one of the 1023 infections is a checked boundary.
        assert!(checked > 500, "only {checked} boundaries checked");
    }

    #[test]
    fn telemetry_mirrors_clocks_and_harvests_sparse_phase() {
        // A creeping frontier spends the whole run inside the sparse
        // skipper; the engine's telemetry must mirror the interaction
        // clocks exactly and must have harvested the skipper's counters
        // even though the run *ends* while the sparse phase is live.
        let g = Graph::cycle(1_024);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(21);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let t = Simulator::telemetry(&sim);
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert!(t.sparse_enters >= 1, "never escalated to sparse");
        assert!(t.sparse.events > 0, "skipper stats were not harvested");
        assert_eq!(t.sparse.event_draws, t.sparse.events);
        assert!(t.sparse.updates_deferred + t.sparse.updates_immediate > 0);
        // Span timing is off by default: no clock reads, zero spans.
        assert_eq!(t.spans, crate::telemetry::SpanSet::new());
    }

    #[test]
    fn silent_configuration_stops_the_clock() {
        let g = Graph::cycle(10);
        let mut sim = epidemic_on(&g, 10); // everyone infected: silent
        assert!(sim.is_silent());
        let mut rng = SimRng::new(4);
        // The dense phase draws genuine (no-op) scheduled interactions
        // until the trigger certifies silence; after that the clock stops
        // for good, so repeated calls cannot inflate stabilization times.
        let (first, changed) = sim.advance_changed(&mut rng, 5_000);
        assert!(!changed);
        assert!(first <= 5_000);
        let clock = sim.interactions();
        let (second, changed) = sim.advance_changed(&mut rng, 5_000);
        assert_eq!((second, changed), (0, false));
        assert_eq!(sim.interactions(), clock);
        assert_eq!(sim.effective_interactions(), 0);
    }

    #[test]
    fn disconnected_graph_freezes_with_mixed_counts() {
        // Two components, infection only in one: the run must go silent
        // with susceptibles remaining — the graph notion of silence.
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let mut states = vec![1usize; 4];
        states[0] = 0;
        let mut sim = GraphSimulator::new(OneWayEpidemic, &g, states);
        let mut rng = SimRng::new(5);
        let mut guard = 0;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(sim.counts(), &[2, 2]);
    }

    #[test]
    fn trait_object_usable() {
        let g = Graph::cycle(100);
        let mut sim: Box<dyn Simulator> = Box::new(epidemic_on(&g, 5));
        let mut rng = SimRng::new(6);
        let ran = sim.run_until(&mut rng, u64::MAX / 2, &mut |_| false);
        assert!(ran > 0);
        assert!(sim.is_silent());
        assert_eq!(sim.counts(), &[100, 0]);
    }

    #[test]
    #[should_panic(expected = "needs edges")]
    fn empty_graph_rejected() {
        let g = Graph::from_edges(3, vec![]);
        GraphSimulator::new(OneWayEpidemic, &g, vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn state_count_mismatch_rejected() {
        let g = Graph::cycle(3);
        GraphSimulator::new(OneWayEpidemic, &g, vec![0, 1]);
    }
}
