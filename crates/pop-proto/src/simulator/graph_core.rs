//! The shared core of the two graph engines.
//!
//! [`GraphSimulator`](super::GraphSimulator) and
//! [`BatchGraphSimulator`](super::BatchGraphSimulator) simulate the same
//! graph-restricted chain and differ only in how they run its **dense**
//! phase (one literal draw at a time versus pre-generated matching
//! blocks). Everything else lives here once, in [`GraphCore`]: the graph
//! (edge list plus CSR adjacency), the packed agent states and their
//! counts, the transition tables, the clocks, telemetry and histograms,
//! the per-edge active-orientation weights, the hand-off into and out of
//! the shared [`SparseSkipper`], the sparse event stepper, and the
//! snapshot body.
//!
//! # Active orientations
//!
//! Under [`GraphScheduler`](crate::scheduler::GraphScheduler) every
//! scheduled interaction picks a uniform edge and a uniform orientation.
//! An orientation `(i → j)` is **active** when
//! `f(state_i, state_j) ≠ (state_i, state_j)`; an edge's weight is its
//! number of active orientations (0, 1 or 2), and `W` is their total. A
//! scheduled interaction is effective with probability `W / 2m`, so the
//! no-op run before the next effective interaction is geometric and the
//! effective interaction is an orientation drawn ∝ weight. The sparse
//! phase samples exactly that law; see the private `sparse` module.
//!
//! # Silence on graphs
//!
//! A configuration is silent for a graph-restricted scheduler iff `W = 0`,
//! a weaker condition than clique silence (two clashing states that are
//! not adjacent cannot interact), so disconnected topologies can freeze in
//! a mixed configuration. In the sparse phase [`GraphCore::is_silent`] is
//! exact (`W == 0`); in the dense phase it uses the sufficient count-level
//! criterion, and a frozen configuration that criterion misses is caught by
//! the dense phases' no-op-run trigger, which escalates to the sparse
//! phase and certifies `W = 0`. Certified silence stops the clock.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::graph::CsrGraph;
use crate::protocol::Protocol;
use crate::simulator::snapshot_tags;
use crate::simulator::sparse::{orient_event, SparseSkipper, SparseStep, SPARSE_TRIGGER_NOOPS};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Packed storage width for a graph engine's per-agent state array.
///
/// The batch-graph scan gathers endpoint states by random access, so the
/// array's cache footprint is its hottest constant: `u8` (its default)
/// keeps it to one byte per agent for protocols with at most 256 states,
/// and `u16` (see [`WideBatchGraphSimulator`](super::WideBatchGraphSimulator))
/// lifts the alphabet cap to 65 536 states at twice the footprint. The
/// graph engine stores `u32`.
pub trait StateWord: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Largest protocol alphabet this width can index.
    const LIMIT: usize;

    /// Pack a dense state index (caller guarantees `s < Self::LIMIT`).
    fn pack(s: usize) -> Self;

    /// Unpack back to the dense state index.
    fn unpack(self) -> usize;
}

impl StateWord for u8 {
    const LIMIT: usize = 256;

    #[inline(always)]
    fn pack(s: usize) -> Self {
        s as u8
    }

    #[inline(always)]
    fn unpack(self) -> usize {
        self as usize
    }
}

impl StateWord for u16 {
    const LIMIT: usize = 65_536;

    #[inline(always)]
    fn pack(s: usize) -> Self {
        s as u16
    }

    #[inline(always)]
    fn unpack(self) -> usize {
        self as usize
    }
}

impl StateWord for u32 {
    const LIMIT: usize = u32::MAX as usize;

    #[inline(always)]
    fn pack(s: usize) -> Self {
        s as u32
    }

    #[inline(always)]
    fn unpack(self) -> usize {
        self as usize
    }
}

/// Block layout of `config`: agents `0..c₀` in state 0, the next `c₁` in
/// state 1, and so on. Only appropriate when the layout is irrelevant
/// (the complete graph); see [`shuffled_layout`] for real topologies.
pub fn block_layout(config: &CountConfig) -> Vec<usize> {
    let mut states = Vec::with_capacity(config.n() as usize);
    for (idx, &c) in config.counts().iter().enumerate() {
        states.extend(std::iter::repeat_n(idx, c as usize));
    }
    states
}

/// Block layout for `config` shuffled uniformly — the canonical random
/// placement of a count configuration onto graph vertices.
pub fn shuffled_layout(config: &CountConfig, rng: &mut SimRng) -> Vec<usize> {
    let mut states = block_layout(config);
    rng.shuffle(&mut states);
    states
}

/// State, graph, clocks and sparse phase shared by the graph engines.
///
/// The engines own one `GraphCore` each and add only their dense-phase
/// machinery; the fields are open to them so their hot loops can borrow
/// disjoint parts directly.
#[derive(Debug, Clone)]
pub(crate) struct GraphCore<P: Protocol, S: StateWord> {
    pub(super) protocol: P,
    /// The graph's edge list (unordered endpoint pairs).
    pub(super) edges: Vec<(u32, u32)>,
    /// CSR adjacency offsets: vertex `v` owns `adj[offsets[v]..offsets[v+1]]`.
    pub(super) offsets: Vec<u32>,
    /// CSR adjacency entries: `(neighbor, edge index)`.
    pub(super) adj: Vec<(u32, u32)>,
    /// Packed dense state index per agent.
    pub(super) states: Vec<S>,
    /// Per-state counts, kept in sync with `states`.
    pub(super) counts: Vec<u64>,
    pub(super) k: usize,
    /// Cached `transition_indices` for all ordered state pairs
    /// (`table[i * k + j]`).
    pub(super) table: Vec<(S, S)>,
    /// Whether `(i, j)` is a no-op (`noop[i * k + j]`).
    pub(super) noop: Vec<bool>,
    /// The sparse-phase engine over per-edge weights; `None` in the dense
    /// phase.
    pub(super) sparse: Option<SparseSkipper>,
    /// Consecutive no-op draws seen by the dense phase (sparse trigger).
    /// Always below [`SPARSE_TRIGGER_NOOPS`] between advancements.
    pub(super) noop_run: u32,
    pub(super) interactions: u64,
    pub(super) effective_interactions: u64,
    /// Engine telemetry; `scheduled`/`effective` mirror the clocks.
    pub(super) telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): dense-phase fields recorded by the
    /// engine, sparse fields merged in from each skipper at phase exits
    /// and boundary reads.
    pub(super) hist: Option<Box<EventHistograms>>,
}

impl<P: Protocol, S: StateWord> GraphCore<P, S> {
    /// Build from explicit per-agent states (dense indices). The graph
    /// must have at least one edge and as many vertices as there are
    /// states, and the alphabet must fit the width (`k ≤ S::LIMIT`).
    pub(super) fn new(protocol: P, graph: impl Into<CsrGraph>, states: Vec<usize>) -> Self {
        let k = protocol.num_states();
        assert!(
            k <= S::LIMIT,
            "protocol alphabet k = {k} exceeds this packing width's limit {}",
            S::LIMIT
        );
        let mut table = Vec::with_capacity(k * k);
        let mut noop = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let (a, b) = protocol.transition_indices(i, j);
                table.push((S::pack(a), S::pack(b)));
                noop.push((a, b) == (i, j));
            }
        }
        let mut counts = vec![0u64; k];
        let states: Vec<S> = states
            .into_iter()
            .map(|s| {
                assert!(s < k, "state index {s} out of range");
                counts[s] += 1;
                S::pack(s)
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
        assert!(!edges.is_empty(), "graph engine needs edges");
        GraphCore {
            protocol,
            edges,
            offsets,
            adj,
            states,
            counts,
            k,
            table,
            noop,
            sparse: None,
            noop_run: 0,
            interactions: 0,
            effective_interactions: 0,
            telemetry: EngineTelemetry::new(),
            hist: None,
        }
    }

    /// Current weight (active orientations) of edge `e` from its endpoint
    /// states.
    #[inline]
    fn edge_weight(&self, e: usize) -> u64 {
        let (a, b) = self.edges[e];
        let sa = self.states[a as usize].unpack();
        let sb = self.states[b as usize].unpack();
        (!self.noop[sa * self.k + sb]) as u64 + (!self.noop[sb * self.k + sa]) as u64
    }

    /// Every edge's current weight: the ground truth a skipper is built,
    /// checked and restored against.
    fn edge_weights(&self) -> Vec<u64> {
        (0..self.edges.len()).map(|e| self.edge_weight(e)).collect()
    }

    /// Total number of active orientations `W` (0 iff silent): O(1) in the
    /// sparse phase, an edge scan in the dense phase.
    pub(super) fn active_weight(&self) -> u64 {
        match &self.sparse {
            Some(s) => s.total(),
            None => (0..self.edges.len()).map(|e| self.edge_weight(e)).sum(),
        }
    }

    /// Graph silence: exact in the sparse phase, the sufficient
    /// count-level criterion in the dense phase (see the module docs).
    pub(super) fn is_silent(&self) -> bool {
        match &self.sparse {
            Some(s) => s.total() == 0,
            None => self.protocol.is_silent(&self.counts),
        }
    }

    /// Verify the sparse skipper (if live) against per-edge weights
    /// recomputed from the states. O(m); `Ok` in the dense phase.
    pub(super) fn validate_sparse_invariants(&self) -> Result<(), String> {
        match &self.sparse {
            None => Ok(()),
            Some(s) => s.check_consistent(&self.edge_weights()),
        }
    }

    /// Re-weight the incident edges of vertex `v` in the sparse skipper
    /// after its state changed from `old` (the state array already holds
    /// the new value). Edges whose weight is unchanged are filtered with
    /// pure transition-table math before the skipper is touched; changed
    /// ones report their new weight, and the tree update is deferred and
    /// coalesced (see [`SparseSkipper`]). Sparse phase only.
    fn refresh_incident(&mut self, v: usize, old: usize) {
        let t = self.states[v].unpack();
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
            let y = self.states[nb as usize].unpack();
            let was = (!self.noop[old * self.k + y]) as u64 + (!self.noop[y * self.k + old]) as u64;
            let now = (!self.noop[t * self.k + y]) as u64 + (!self.noop[y * self.k + t]) as u64;
            if was != now {
                sparse.set_weight(e as usize, now);
            }
        }
    }

    /// Apply `f` to the oriented pair `(i → j)` from **current** states;
    /// returns whether any state changed (re-weighting the incident edges
    /// when the skipper is live).
    pub(super) fn apply_oriented(&mut self, i: usize, j: usize) -> bool {
        let (si, sj) = (self.states[i].unpack(), self.states[j].unpack());
        if self.noop[si * self.k + sj] {
            return false;
        }
        let (ti, tj) = self.table[si * self.k + sj];
        self.counts[si] -= 1;
        self.counts[sj] -= 1;
        self.counts[ti.unpack()] += 1;
        self.counts[tj.unpack()] += 1;
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
        if ti.unpack() != si {
            self.states[i] = ti;
            self.refresh_incident(i, si);
        }
        if tj.unpack() != sj {
            self.states[j] = tj;
            self.refresh_incident(j, sj);
        }
        true
    }

    /// Enter the sparse phase: scan the graph once and hand the per-edge
    /// active-orientation weights to a fresh [`SparseSkipper`].
    pub(super) fn enter_sparse(&mut self) {
        let mut skipper = SparseSkipper::new(&self.edge_weights());
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

    /// The sparse phase's turn at the top of an advancement loop. With no
    /// live skipper, or when activity has recovered past the hysteresis
    /// threshold (the skipper is then dropped), returns `None`: the dense
    /// phase runs. At certified silence returns `Some((0, false))`: the
    /// clock stops instead of charging the horizon, so stabilization times
    /// report when silence was *reached*. Otherwise applies up to `limit`
    /// effective events with [`GraphCore::sparse_events`]. Requires
    /// `max > 0`.
    pub(super) fn sparse_turn(
        &mut self,
        rng: &mut SimRng,
        max: u64,
        limit: u64,
    ) -> Option<(u64, bool)> {
        let s = self.sparse.as_ref()?;
        if s.total() == 0 {
            return Some((0, false));
        }
        if s.should_exit_to_dense() {
            self.exit_sparse();
            return None;
        }
        let t0 = self.telemetry.clock.start();
        let out = self.sparse_events(rng, max, limit);
        self.telemetry.spans.sparse_ns += self.telemetry.clock.elapsed_ns(t0);
        Some(out)
    }

    /// Apply up to `limit` effective events, each preceded by its exact
    /// geometric no-op skip, from the exact conditional law (edge ∝
    /// active-orientation weight, then a uniform active orientation of the
    /// edge), charging the clock once at the end. Stops early at the
    /// horizon `max` (the first `max` interactions are then conditionally
    /// all no-ops — truncated geometric, still exact), at silence (the
    /// clock stops *at* the silencing event, with no trailing skips
    /// drawn), or when activity recovers past the hysteresis threshold.
    /// The skipper's Fenwick updates stay amortized across calls because
    /// its sidecar persists. Returns (interactions advanced, whether the
    /// counts changed). Precondition: skipper live.
    fn sparse_events(&mut self, rng: &mut SimRng, max: u64, limit: u64) -> (u64, bool) {
        let mut advanced = 0u64;
        let mut events = 0u64;
        while events < limit && advanced < max {
            let sparse = self.sparse.as_mut().expect("sparse events without skipper");
            if sparse.total() == 0 || sparse.should_exit_to_dense() {
                break;
            }
            let e = match sparse.next_event(rng, max - advanced) {
                SparseStep::Horizon => {
                    advanced = max;
                    break;
                }
                SparseStep::Event { consumed, edge } => {
                    advanced += consumed;
                    edge
                }
            };
            let (a, b) = self.edges[e];
            let sa = self.states[a as usize].unpack();
            let sb = self.states[b as usize].unpack();
            let (i, j) = orient_event(
                rng,
                a as usize,
                b as usize,
                !self.noop[sa * self.k + sb],
                !self.noop[sb * self.k + sa],
            );
            let changed = self.apply_oriented(i, j);
            debug_assert!(changed, "sampled active orientation was a no-op");
            events += 1;
            self.sparse
                .as_mut()
                .expect("sparse events without skipper")
                .end_event();
        }
        self.interactions += advanced;
        self.telemetry.scheduled += advanced;
        (advanced, events > 0)
    }

    /// Harvest the live skipper's telemetry. The engines call this at every
    /// advancement boundary so their totals are current even while the
    /// sparse phase is live (runs routinely *end* inside it).
    pub(super) fn harvest_sparse_stats(&mut self) {
        if let Some(s) = &mut self.sparse {
            self.telemetry.sparse.absorb(s.take_stats());
        }
    }

    /// [`Simulator::set_histograms`](super::Simulator::set_histograms).
    pub(super) fn set_histograms(&mut self, enabled: bool) {
        self.hist = enabled.then(|| Box::new(EventHistograms::new()));
        if let Some(s) = &mut self.sparse {
            s.set_histograms(enabled);
        }
    }

    /// [`Simulator::histograms`](super::Simulator::histograms): the
    /// engine's own buckets merged with the live skipper's.
    pub(super) fn histograms(&self) -> Option<EventHistograms> {
        let mut h = self.hist.as_deref()?.clone();
        if let Some(sh) = self.sparse.as_ref().and_then(|s| s.histograms()) {
            h.merge(sh);
        }
        Some(h)
    }

    /// Write the snapshot body under the engine's `tag`. The graph
    /// structure and transition tables are constructor-derived; the
    /// mutable state is the agent states (as `u32`, whatever the packing
    /// width), the clocks, the dense no-op run, telemetry, histograms, and
    /// the live skipper (whose Fenwick tree restores from the states plus
    /// the sidecar).
    pub(super) fn write_snapshot(&self, w: &mut SnapshotWriter, tag: u8) {
        w.put_u8(tag);
        snapshot_tags::write_config(w, self.states.len() as u64, self.k);
        w.put_u64(self.states.len() as u64);
        for &s in &self.states {
            w.put_u32(s.unpack() as u32);
        }
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
    }

    /// Read a body written by [`GraphCore::write_snapshot`] under `tag`,
    /// validating it against this engine's configuration and graph.
    pub(super) fn read_snapshot(
        &mut self,
        r: &mut SnapshotReader<'_>,
        tag: u8,
    ) -> Result<(), CheckpointError> {
        let engine = snapshot_tags::name(tag);
        snapshot_tags::expect(r, tag, engine)?;
        snapshot_tags::expect_config(r, self.states.len() as u64, self.k)?;
        let count = r.get_u64()?;
        if count != self.states.len() as u64 {
            return Err(CheckpointError::Corrupt(format!(
                "{engine} snapshot has {count} agents (engine has {})",
                self.states.len()
            )));
        }
        let mut states = Vec::with_capacity(self.states.len());
        let mut counts = vec![0u64; self.k];
        for _ in 0..count {
            let s = r.get_u32()? as usize;
            if s >= self.k {
                return Err(CheckpointError::Corrupt(format!(
                    "agent state index {s} out of range ({} states)",
                    self.k
                )));
            }
            counts[s] += 1;
            states.push(S::pack(s));
        }
        let interactions = r.get_u64()?;
        let effective_interactions = r.get_u64()?;
        let noop_run = r.get_u32()?;
        if noop_run >= SPARSE_TRIGGER_NOOPS {
            // The dense phases enter the sparse phase (resetting the run)
            // the moment it reaches the trigger, so no engine is ever
            // snapshotted at or past it.
            return Err(CheckpointError::Corrupt(format!(
                "dense no-op run {noop_run} is not below the sparse trigger \
                 {SPARSE_TRIGGER_NOOPS}"
            )));
        }
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
        self.sparse = if r.get_bool()? {
            Some(SparseSkipper::read_snapshot(&self.edge_weights(), r)?)
        } else {
            None
        };
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.noop_run = noop_run;
        self.telemetry = telemetry;
        self.hist = hist;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::protocol::OneWayEpidemic;
    use crate::simulator::{
        BatchGraphSimulator, GraphSimulator, Simulator, WideBatchGraphSimulator,
    };

    /// A cycle epidemic with one infected agent on each graph engine.
    fn cycle_epidemics(n: usize) -> Vec<Box<dyn Simulator>> {
        let g = Graph::cycle(n);
        let mut states = vec![1usize; n];
        states[0] = 0;
        vec![
            Box::new(GraphSimulator::new(OneWayEpidemic, &g, states.clone())),
            Box::new(BatchGraphSimulator::new(OneWayEpidemic, &g, states.clone())),
            Box::new(WideBatchGraphSimulator::with_states(
                OneWayEpidemic,
                &g,
                states,
            )),
        ]
    }

    #[test]
    fn shuffled_layout_preserves_counts() {
        let cfg = CountConfig::from_counts(vec![10, 30, 60]);
        assert_eq!(
            block_layout(&cfg),
            [vec![0; 10], vec![1; 30], vec![2; 60]].concat()
        );
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
    fn restore_rejects_a_noop_run_at_or_past_the_trigger() {
        // The snapshot body is tag (1) + n (8) + k (4) + state count (8) +
        // n states (4 each) + two clocks (8 each), then the dense no-op
        // run. The dense loops enter the sparse phase the moment the run
        // reaches the trigger, so a larger value is corrupt — restoring it
        // would let the next dense advance overflow the counter.
        let n = 64;
        let at = 37 + 4 * n;
        for engine in 0..3 {
            let fresh = || cycle_epidemics(n).swap_remove(engine);
            let mut sim = fresh();
            sim.advance(&mut SimRng::new(3), 10);
            let mut w = SnapshotWriter::new();
            sim.snapshot_state(&mut w).unwrap();
            let body = w.into_bytes();
            for bad in [SPARSE_TRIGGER_NOOPS, u32::MAX] {
                let mut patched = body.clone();
                patched[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                let err = fresh().restore_state(&mut SnapshotReader::new(&patched));
                assert!(
                    matches!(err, Err(CheckpointError::Corrupt(ref m)) if m.contains("no-op run")),
                    "tag {}: no-op run {bad} restored: {err:?}",
                    body[0]
                );
            }
            fresh()
                .restore_state(&mut SnapshotReader::new(&body))
                .expect("unpatched body must restore");
        }
    }

    #[cfg(feature = "span-timing")]
    #[test]
    fn spans_are_filled_on_both_engines() {
        // A cycle epidemic starts dense (one infected agent), escalates to
        // the sparse phase, and ends there: every span the engines record
        // must have been charged.
        for mut sim in cycle_epidemics(1_024) {
            sim.set_span_timing(true);
            let mut rng = SimRng::new(5);
            sim.run_to_silence(&mut rng, u64::MAX / 2);
            let t = sim.telemetry();
            let s = t.spans;
            assert!(t.sparse_enters >= 1, "never reached the sparse phase");
            assert!(s.dense_ns > 0 && s.sparse_ns > 0, "spans {s:?}");
            if t.blocks > 0 {
                assert!(s.gather_ns > 0 && s.apply_ns > 0, "spans {s:?}");
                assert!(s.dense_ns >= s.gather_ns + s.apply_ns, "spans {s:?}");
            }
        }
    }
}
