//! Active-edge exact simulator for graph-restricted schedulers.
//!
//! # The active-edge idea
//!
//! Under [`GraphScheduler`](crate::scheduler::GraphScheduler) every
//! scheduled interaction picks a uniform edge and a uniform orientation.
//! Call an *orientation* `(i → j)` of an edge **active** when
//! `f(state_i, state_j) ≠ (state_i, state_j)`; let `W` be the total number
//! of active orientations and `2m` the number of orientations overall. A
//! scheduled interaction changes the configuration with probability exactly
//! `W / 2m`, independently across steps while the configuration is
//! unchanged — so the number of no-ops before the next *effective*
//! interaction is geometric with success probability `W / 2m`, and the
//! effective interaction itself is a uniform draw from the active
//! orientations.
//!
//! [`GraphSimulator`] adapts its machinery to the activity level:
//!
//! * **dense phase**: interactions are simulated literally — a uniform
//!   edge and orientation per step, O(1), *no* weight bookkeeping — so on
//!   effective-dominated stretches (USD's bulk phase on expanders has a
//!   30–55% effective fraction) the engine matches the agentwise cost
//!   instead of paying per-edge updates that buy nothing. A run of
//!   consecutive no-op draws long enough to certify a collapsed activity
//!   fraction triggers the sparse phase (the failed draws *are* scheduled
//!   no-op interactions, so nothing is wasted or approximated);
//! * **sparse phase**: the engine scans the graph once and hands the
//!   per-edge active-orientation weights (0, 1, or 2) to the shared
//!   [`SparseSkipper`](super::sparse) — the block-leaping Fenwick engine
//!   both graph simulators use. Each no-op run is skipped in O(1) (the run
//!   length is geometric with success probability `W / 2m`, with the
//!   inversion constant cached per distinct `W`), the effective edge is
//!   sampled in O(log m) from the exact weighted law, and the re-weighting
//!   of the ≤ d incident edges of a changed agent is *deferred*: deltas
//!   coalesce in the skipper's sidecar and hit the tree in one batched
//!   pass per ~64-event block, so frontier dynamics whose deltas cancel
//!   pay a fraction of the old per-event O(d log m). When the activity
//!   fraction recovers past a hysteresis threshold the tree is dropped and
//!   the dense phase resumes.
//!
//! On no-op-dominated regimes (low-conductance families like the cycle and
//! torus spend > 99% of their schedule on no-ops; any topology's endgame
//! collapses to a few active edges) the scheduled-to-effective ratio is
//! what separates this engine from the per-interaction agentwise engine,
//! which is why it is the one that makes n = 10⁶ graph topologies cheap.
//!
//! # Exactness
//!
//! The geometric skip is the exact law of the embedded no-op run (the same
//! inversion `SkipAheadUsd` and `BatchSimulator` use), and the effective
//! interaction is drawn from the exact conditional law (edge ∝ its active
//! orientation count, then a uniform active orientation of that edge), so
//! the induced chain on agent states is identical to driving
//! [`AgentSimulator`](crate::simulator::AgentSimulator) with a
//! [`GraphScheduler`](crate::scheduler::GraphScheduler) — verified by KS
//! tests in `tests/topology_equivalence.rs`.
//!
//! # Silence on graphs
//!
//! A configuration is silent for a graph-restricted scheduler iff `W = 0` —
//! a *weaker* condition than clique silence (two clashing opinions that are
//! not adjacent cannot interact). On connected graphs USD silence still
//! coincides with consensus/all-⊥, but on disconnected topologies the
//! dynamics can freeze in a mixed configuration. In the sparse phase
//! [`GraphSimulator::is_silent`] reports exactly `W == 0`; in the dense
//! phase it uses the (sufficient) count-level criterion, and a frozen
//! configuration that criterion misses is caught by the no-op-run trigger,
//! which escalates to the sparse phase and certifies `W = 0` — so every
//! driver loop terminates with the exact graph notion.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::graph::CsrGraph;
use crate::protocol::Protocol;
use crate::simulator::sparse::{orient_event, SparseSkipper, SparseStep, SPARSE_TRIGGER_NOOPS};
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
    protocol: P,
    /// The graph's edge list (unordered endpoint pairs).
    edges: Vec<(u32, u32)>,
    /// CSR adjacency offsets: vertex `v` owns `adj[offsets[v]..offsets[v+1]]`.
    offsets: Vec<u32>,
    /// CSR adjacency entries: `(neighbor, edge index)`.
    adj: Vec<(u32, u32)>,
    /// Dense state index per agent.
    states: Vec<u32>,
    /// Per-state counts, kept in sync with `states`.
    counts: Vec<u64>,
    /// Shared sparse-phase engine over per-edge active-orientation weights
    /// (0, 1, or 2). Materialized only in the sparse phase; `None` while
    /// the dense phase steps literally.
    sparse: Option<SparseSkipper>,
    /// Consecutive no-op draws seen by the dense phase (sparse trigger).
    noop_run: u32,
    k: usize,
    interactions: u64,
    effective_interactions: u64,
    /// Cached `transition_indices` for all ordered state pairs
    /// (`table[i * k + j]`).
    table: Vec<(u32, u32)>,
    /// Whether `(i, j)` is a no-op (`noop[i * k + j]`).
    noop: Vec<bool>,
    /// Engine telemetry: live counters here are `scheduled`/`effective`
    /// (mirroring the interaction clocks), `dense_steps`, `pair_draws`,
    /// `sparse_enters`/`sparse_exits`, the harvested skipper stats, and
    /// the dense/sparse spans.
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): dense no-op run lengths recorded
    /// here, sparse-phase fields merged in from each skipper at phase
    /// exits and boundary reads.
    hist: Option<Box<EventHistograms>>,
}

impl<P: Protocol> GraphSimulator<P> {
    /// Create from explicit per-agent states (dense indices). The graph
    /// must have at least one edge and as many vertices as there are
    /// states. An owned [`Graph`](crate::Graph) moves its edge list and
    /// CSR into the engine; a `&Graph` is copied (see [`CsrGraph`]).
    pub fn new(protocol: P, graph: impl Into<CsrGraph>, states: Vec<usize>) -> Self {
        let k = protocol.num_states();
        let mut table = Vec::with_capacity(k * k);
        let mut noop = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let (a, b) = protocol.transition_indices(i, j);
                table.push((a as u32, b as u32));
                noop.push((a, b) == (i, j));
            }
        }
        let mut counts = vec![0u64; k];
        let states: Vec<u32> = states
            .into_iter()
            .map(|s| {
                assert!(s < k, "state index {s} out of range");
                counts[s] += 1;
                s as u32
            })
            .collect();
        // The graph converts after the layout has narrowed, so a copied
        // CSR never coexists with the `usize` states (peak memory).
        let CsrGraph {
            n,
            edges,
            offsets,
            adj,
        } = graph.into();
        assert_eq!(
            states.len(),
            n,
            "agent count does not match graph vertex count"
        );
        assert!(!edges.is_empty(), "graphwise engine needs edges");

        GraphSimulator {
            protocol,
            edges,
            offsets,
            adj,
            states,
            counts,
            sparse: None,
            noop_run: 0,
            k,
            interactions: 0,
            effective_interactions: 0,
            table,
            noop,
            telemetry: EngineTelemetry::new(),
            hist: None,
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
        let states = shuffled_layout(config, rng);
        Self::new(protocol, graph, states)
    }

    /// Create from a count configuration with a block layout (agents
    /// `0..c₀` in state 0, the next `c₁` in state 1, …). Only appropriate
    /// when the layout is irrelevant — i.e. the complete graph; prefer
    /// [`GraphSimulator::from_config_shuffled`] for real topologies.
    pub fn from_config(protocol: P, graph: impl Into<CsrGraph>, config: &CountConfig) -> Self {
        let mut states = Vec::with_capacity(config.n() as usize);
        for (idx, &c) in config.counts().iter().enumerate() {
            states.extend(std::iter::repeat_n(idx, c as usize));
        }
        Self::new(protocol, graph, states)
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The state index of one agent.
    pub fn state_of_agent(&self, v: usize) -> usize {
        self.states[v] as usize
    }

    /// Per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Current count configuration (copies counts).
    pub fn config(&self) -> CountConfig {
        CountConfig::from_counts(self.counts.clone())
    }

    /// Total interactions simulated (including no-ops).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Interactions that changed the configuration.
    pub fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    /// Total number of active orientations `W` (0 iff silent). O(1) in the
    /// sparse phase; scans the edges in the dense phase, where `W` is not
    /// maintained.
    pub fn active_weight(&self) -> u64 {
        match &self.sparse {
            Some(s) => s.total(),
            None => (0..self.edges.len()).map(|e| self.edge_weight(e)).sum(),
        }
    }

    /// Parallel time elapsed (= interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.states.len() as f64
    }

    /// Whether the configuration is silent *for this graph*: no scheduled
    /// interaction can change it (`W = 0`).
    ///
    /// Sparse phase: exact (`W == 0`). Dense phase: the count-level clique
    /// criterion, which is sufficient (clique silence implies graph
    /// silence) but can miss a frozen configuration on a *disconnected*
    /// graph; driver loops still terminate because the dense phase's
    /// no-op-run trigger escalates such configurations to the sparse phase
    /// (see the module docs).
    pub fn is_silent(&self) -> bool {
        match &self.sparse {
            Some(s) => s.total() == 0,
            None => self.protocol.is_silent(&self.counts),
        }
    }

    /// Current weight (active orientations) of edge `e` from its endpoint
    /// states.
    #[inline]
    fn edge_weight(&self, e: usize) -> u64 {
        let (a, b) = self.edges[e];
        let sa = self.states[a as usize] as usize;
        let sb = self.states[b as usize] as usize;
        (!self.noop[sa * self.k + sb]) as u64 + (!self.noop[sb * self.k + sa]) as u64
    }

    /// Verify the sparse skipper (if live) against per-edge weights
    /// recomputed from the states — the deferred-update invariants the
    /// property tests pin. O(m); `Ok` when the dense phase is active.
    #[doc(hidden)]
    pub fn validate_sparse_invariants(&self) -> Result<(), String> {
        match &self.sparse {
            None => Ok(()),
            Some(s) => {
                let truth: Vec<u64> = (0..self.edges.len()).map(|e| self.edge_weight(e)).collect();
                s.check_consistent(&truth)
            }
        }
    }

    /// Re-weight the incident edges of vertex `v` in the sparse skipper
    /// after its state changed from `old` (the state array already holds
    /// the new value). Edges whose weight is unchanged are filtered with
    /// pure transition-table math before the skipper is touched; changed
    /// ones report their new weight, and the tree update is deferred and
    /// coalesced (see [`SparseSkipper`]). Sparse phase only.
    fn refresh_incident(&mut self, v: usize, old: usize) {
        let t = self.states[v] as usize;
        let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        let sparse = self
            .sparse
            .as_mut()
            .expect("sparse-phase refresh without a skipper");
        for idx in lo..hi {
            let (nb, e) = self.adj[idx];
            debug_assert_ne!(nb as usize, v, "self-loop");
            // The neighbor may be the interaction partner; the two
            // endpoints are flipped and refreshed one at a time, so `y`
            // and `old` always describe the edge's pre-refresh weight
            // exactly.
            let y = self.states[nb as usize] as usize;
            let was = (!self.noop[old * self.k + y]) as u64 + (!self.noop[y * self.k + old]) as u64;
            let now = (!self.noop[t * self.k + y]) as u64 + (!self.noop[y * self.k + t]) as u64;
            if was != now {
                sparse.set_weight(e as usize, now);
            }
        }
    }

    /// Apply `f` to the oriented pair `(i → j)`; returns whether any state
    /// changed (re-weighting the incident edges when the tree is live).
    fn apply_oriented(&mut self, i: usize, j: usize) -> bool {
        let (si, sj) = (self.states[i] as usize, self.states[j] as usize);
        if self.noop[si * self.k + sj] {
            return false;
        }
        let (ti, tj) = self.table[si * self.k + sj];
        self.counts[si] -= 1;
        self.counts[sj] -= 1;
        self.counts[ti as usize] += 1;
        self.counts[tj as usize] += 1;
        self.effective_interactions += 1;
        self.telemetry.effective += 1;
        if self.sparse.is_none() {
            self.states[i] = ti;
            self.states[j] = tj;
            return true;
        }
        // Refresh one endpoint at a time so each new weight is computed
        // against a consistent snapshot: flip i first (j still old),
        // refresh i's edges; then flip j and refresh. The shared edge
        // (i, j) is seen by both refreshes and settles on its final weight
        // with the second one.
        if ti as usize != si {
            self.states[i] = ti;
            self.refresh_incident(i, si);
        }
        if tj as usize != sj {
            self.states[j] = tj;
            self.refresh_incident(j, sj);
        }
        true
    }

    /// Enter the sparse phase: scan the graph once and hand the per-edge
    /// active-orientation weights to a fresh [`SparseSkipper`].
    fn enter_sparse(&mut self) {
        let weights: Vec<u64> = (0..self.edges.len()).map(|e| self.edge_weight(e)).collect();
        let mut skipper = SparseSkipper::new(&weights);
        skipper.set_histograms(self.hist.is_some());
        self.sparse = Some(skipper);
        self.noop_run = 0;
        self.telemetry.sparse_enters += 1;
    }

    /// Drop the sparse skipper (activity recovered), harvesting its
    /// telemetry first so no counters are lost with the phase.
    fn exit_sparse(&mut self) {
        if let Some(mut s) = self.sparse.take() {
            self.telemetry.sparse.absorb(s.take_stats());
            if let (Some(h), Some(sh)) = (&mut self.hist, s.histograms()) {
                h.merge(sh);
            }
            self.telemetry.sparse_exits += 1;
        }
        self.noop_run = 0;
    }

    /// Simulate exactly one scheduled interaction (uniform edge, uniform
    /// orientation — the literal [`GraphScheduler`] law); returns whether
    /// it changed the configuration.
    ///
    /// [`GraphScheduler`]: crate::scheduler::GraphScheduler
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let (a, b) = self.edges[rng.index(self.edges.len())];
        let (i, j) = if rng.bernoulli(0.5) {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        self.apply_oriented(i, j)
    }

    /// One sparse-phase advancement: geometrically skip the no-op run
    /// preceding the next effective interaction (truncated at `max`) and
    /// simulate that interaction from the exact conditional law — edge
    /// ∝ active-orientation weight, then a uniform active orientation of
    /// the edge. Returns after **one** effective event (the engine's exact
    /// observation granularity); the skipper's Fenwick updates are still
    /// amortized because its sidecar persists across calls. Precondition:
    /// skipper live, `W > 0`, `max > 0`.
    fn sparse_advance(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let sparse = self
            .sparse
            .as_mut()
            .expect("sparse advance without skipper");
        let (consumed, e) = match sparse.next_event(rng, max) {
            SparseStep::Horizon => {
                // The effective interaction lands beyond the horizon: the
                // first `max` interactions are conditionally all no-ops
                // (truncated geometric — still exact).
                self.interactions += max;
                self.telemetry.scheduled += max;
                return (max, false);
            }
            SparseStep::Event { consumed, edge } => {
                self.interactions += consumed;
                self.telemetry.scheduled += consumed;
                (consumed, edge)
            }
        };
        let (a, b) = self.edges[e];
        let sa = self.states[a as usize] as usize;
        let sb = self.states[b as usize] as usize;
        let (i, j) = orient_event(
            rng,
            a as usize,
            b as usize,
            !self.noop[sa * self.k + sb],
            !self.noop[sb * self.k + sa],
        );
        let changed = self.apply_oriented(i, j);
        debug_assert!(changed, "sampled active orientation was a no-op");
        self.sparse
            .as_mut()
            .expect("sparse advance without skipper")
            .end_event();
        (consumed, true)
    }

    /// Advance by at most `max` interactions using the cheapest exact
    /// mechanism for the current activity level (literal dense stepping or
    /// the sparse Fenwick skipper). Returns interactions advanced and
    /// whether the counts changed. On a certified-silent configuration the
    /// clock stops: the call returns without advancing (possibly `(0,
    /// false)`), and `is_silent()` is true.
    pub fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let out = self.advance_changed_impl(rng, max);
        // Harvest the skipper's telemetry at every advancement boundary so
        // the engine's totals are current even while the sparse phase is
        // live (runs routinely *end* inside it).
        if let Some(s) = &mut self.sparse {
            self.telemetry.sparse.absorb(s.take_stats());
        }
        out
    }

    fn advance_changed_impl(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let mut advanced = 0u64;
        loop {
            // Sparse phase: skip geometrically; fall back to dense when the
            // activity fraction has recovered past the hysteresis
            // threshold.
            if let Some(s) = &self.sparse {
                if s.total() == 0 {
                    // Silent: nothing can ever change. Stop the clock
                    // instead of charging the horizon, so stabilization
                    // times report when silence was *reached* — drivers
                    // treat a short advancement as termination and confirm
                    // via `is_silent`, which is exact here.
                    return (advanced, false);
                }
                if s.should_exit_to_dense() {
                    self.exit_sparse();
                } else {
                    let t0 = self.telemetry.clock.start();
                    let (leapt, changed) = self.sparse_advance(rng, max - advanced);
                    self.telemetry.spans.sparse_ns += self.telemetry.clock.elapsed_ns(t0);
                    return (advanced + leapt, changed);
                }
            }
            // Dense phase: literal scheduled draws, O(1) each. A long
            // enough run of consecutive no-ops certifies a collapsed
            // activity fraction (or silence) and escalates to the sparse
            // skipper on the next loop turn.
            let t0 = self.telemetry.clock.start();
            let mut effective_at: Option<u64> = None;
            while advanced < max {
                advanced += 1;
                if self.step(rng) {
                    if let Some(h) = &mut self.hist {
                        // The literally-counted dense no-op run before this
                        // effective event — the same quantity the sparse
                        // phase samples geometrically.
                        h.skip_len.add_u64(self.noop_run as u64);
                    }
                    self.noop_run = 0;
                    effective_at = Some(advanced);
                    break;
                }
                self.noop_run += 1;
                if self.noop_run >= SPARSE_TRIGGER_NOOPS {
                    self.enter_sparse();
                    break;
                }
            }
            self.telemetry.spans.dense_ns += self.telemetry.clock.elapsed_ns(t0);
            if let Some(done) = effective_at {
                return (done, true);
            }
            if advanced >= max {
                return (max, false);
            }
        }
    }

    /// Run until `stop` returns true on the counts, graph silence, or
    /// `budget` interactions; returns interactions simulated by this call.
    pub fn run(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> u64 {
        let start = self.interactions;
        if stop(self) || self.is_silent() {
            return 0;
        }
        loop {
            let done = self.interactions - start;
            if done >= budget {
                return done;
            }
            let (advanced, changed) = self.advance_changed(rng, budget - done);
            if advanced == 0 {
                return done;
            }
            if changed && (stop(self) || self.is_silent()) {
                return self.interactions - start;
            }
        }
    }
}

/// Block layout for `config` shuffled uniformly — the canonical random
/// placement of a count configuration onto graph vertices.
pub fn shuffled_layout(config: &CountConfig, rng: &mut SimRng) -> Vec<usize> {
    let mut states = Vec::with_capacity(config.n() as usize);
    for (idx, &c) in config.counts().iter().enumerate() {
        states.extend(std::iter::repeat_n(idx, c as usize));
    }
    rng.shuffle(&mut states);
    states
}

impl<P: Protocol> Simulator for GraphSimulator<P> {
    fn population(&self) -> u64 {
        self.states.len() as u64
    }

    fn num_states(&self) -> usize {
        self.k
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        GraphSimulator::step(self, rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        GraphSimulator::advance_changed(self, rng, max)
    }

    fn is_silent(&self) -> bool {
        GraphSimulator::is_silent(self)
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_span_timing(&mut self, enabled: bool) {
        self.telemetry.clock.enabled = enabled;
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        if let Some(s) = &mut self.sparse {
            s.set_histograms(enabled);
        }
    }

    fn histograms(&self) -> Option<EventHistograms> {
        let mut h = self.hist.as_deref()?.clone();
        if let Some(sh) = self.sparse.as_ref().and_then(|s| s.histograms()) {
            h.merge(sh);
        }
        Some(h)
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        // The graph structure (edges, CSR adjacency) and transition tables
        // are constructor-derived; the mutable state is the agent states,
        // the clocks, the dense no-op run, and the live skipper (whose
        // Fenwick tree restores from the states plus the sidecar).
        w.put_u8(snapshot_tags::GRAPH);
        snapshot_tags::write_config(w, self.states.len() as u64, self.k);
        w.put_u32_slice(&self.states);
        w.put_u64(self.interactions);
        w.put_u64(self.effective_interactions);
        w.put_u32(self.noop_run);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        match &self.sparse {
            Some(s) => {
                w.put_bool(true);
                s.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        snapshot_tags::expect(r, snapshot_tags::GRAPH, "graph")?;
        snapshot_tags::expect_config(r, self.states.len() as u64, self.k)?;
        let states = r.get_u32_vec()?;
        if states.len() != self.states.len() {
            return Err(CheckpointError::Corrupt(format!(
                "graph snapshot has {} agents (engine has {})",
                states.len(),
                self.states.len()
            )));
        }
        let mut counts = vec![0u64; self.k];
        for &s in &states {
            if (s as usize) >= self.k {
                return Err(CheckpointError::Corrupt(format!(
                    "agent state index {s} out of range ({} states)",
                    self.k
                )));
            }
            counts[s as usize] += 1;
        }
        let interactions = r.get_u64()?;
        let effective_interactions = r.get_u64()?;
        let noop_run = r.get_u32()?;
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        // The skipper validates itself against ground-truth weights
        // recomputed from the restored states, so install those first.
        self.states = states;
        self.counts = counts;
        let sparse = if r.get_bool()? {
            let truth: Vec<u64> = (0..self.edges.len()).map(|e| self.edge_weight(e)).collect();
            Some(SparseSkipper::read_snapshot(&truth, r)?)
        } else {
            None
        };
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.noop_run = noop_run;
        self.telemetry = telemetry;
        self.hist = hist;
        self.sparse = sparse;
        Ok(())
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
    fn shuffled_layout_preserves_counts() {
        let cfg = CountConfig::from_counts(vec![10, 30, 60]);
        let mut rng = SimRng::new(7);
        let layout = shuffled_layout(&cfg, &mut rng);
        assert_eq!(layout.len(), 100);
        let mut counts = [0u64; 3];
        for &s in &layout {
            counts[s] += 1;
        }
        assert_eq!(&counts, &[10, 30, 60]);
        // And it actually shuffles (block layout is astronomically
        // unlikely to survive).
        assert_ne!(layout, shuffled_layout(&cfg, &mut SimRng::new(8)));
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
