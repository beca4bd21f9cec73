//! Exact simulators for population protocols.
//!
//! Six engines simulate the same Markov chains at different cost models:
//!
//! * [`AgentSimulator`] — tracks each agent's state individually and asks a
//!   [`Scheduler`](crate::scheduler::Scheduler) for agent pairs: the literal
//!   model, O(1) per interaction but O(n) memory, and the ground-truth
//!   oracle for equivalence testing. Works with any scheduler, clique or
//!   graph-restricted.
//! * [`CountSimulator`] — tracks only per-state counts and samples the
//!   interacting *states* directly from the counts (first state ∝ count,
//!   second ∝ count with the first agent removed). For the uniform clique
//!   scheduler this induces exactly the same Markov chain on count
//!   configurations, at O(k) memory and O(log k) time per interaction.
//! * [`BatchSimulator`] — leaps over whole blocks of interactions at once
//!   by sampling the multinomial split of ordered state-pairs for a
//!   collision-free batch (no agent interacting twice), applying
//!   transitions count-wise, and handling the first colliding interaction
//!   exactly; no-op-dominated phases use geometric skip-ahead instead.
//!   O(k² + √n) work per ~√n interactions — sub-constant time per
//!   interaction, the enabler for n ≥ 10⁸ runs. Clique only.
//! * [`GraphSimulator`] and [`BatchGraphSimulator`] — the graph-topology
//!   engines: **one core, two dense strategies**. The shared core (the
//!   private `graph_core` module) owns per-agent states, the graph's edge
//!   list and CSR adjacency, the clocks, telemetry, the snapshot body, and
//!   the sparse phase — a Fenwick tree over per-edge *active* (non-no-op)
//!   orientation counts that skips geometrically over no-op stretches and
//!   pays O(d log m) per **effective** interaction, the fast exact
//!   mechanism for no-op-dominated
//!   [`GraphScheduler`](crate::scheduler::GraphScheduler) topologies. The
//!   engines differ only in their dense phase: [`GraphSimulator`] draws
//!   one literal (edge, orientation) at a time and steps the sparse phase
//!   one event at a time (exact observation), while
//!   [`BatchGraphSimulator`] pre-generates whole blocks of the
//!   (configuration-independent) scheduled draw sequence, applies every
//!   draw whose edge is vertex-disjoint from the block's earlier effective
//!   edges from block-start states (a matching), falls back to a literal
//!   step at the first shared endpoint, and steps the sparse phase a block
//!   of events at a time — the fast exact engine for
//!   *effective-dominated* graph regimes (expanders).
//!   [`WideBatchGraphSimulator`] is its u16 state-packing fallback for
//!   protocols with more than 256 states.
//! * [`ReplicaSimulator`] — the ensemble engine: up to 64 independent
//!   replica runs bit-sliced into plane words per agent and advanced
//!   together by one shared (pair, orientation) schedule, on the clique or
//!   any interaction graph.
//!
//! The graph core's sparse phase (one stepper, called with a per-call
//! event limit of 1 or 64 by the two engines) rests on the private
//! `sparse` module: a Fenwick tree over per-edge active-orientation
//! weights with the total maintained incrementally, geometric no-op skips
//! whose per-block aggregates are negative-binomial totals, and tree
//! updates deferred into coalesced batched passes behind a
//! no-false-negative dirty-edge sidecar.
//!
//! The [`Simulator`] trait unifies them so drivers, experiments, the
//! CLI, and benches can select a backend generically; its
//! [`advance_observed`](Simulator::advance_observed) hook additionally
//! drives a [`SimObserver`] at every
//! configuration-changing advancement boundary, giving observer-driven
//! experiments (lemma probes, trace recorders, crossing detectors) one
//! backend-agnostic entry point — exact per-effective-event on the
//! single-event engines, block-checkpoint on the leaping ones (see
//! [`observe`](crate::observe)).

mod agentwise;
mod batched;
mod batched_graph;
mod countwise;
mod graph_core;
mod graphwise;
mod replica;
mod sparse;

pub use agentwise::{AgentSimulator, InteractionRecord};
pub use batched::BatchSimulator;
pub use batched_graph::{BatchGraphSimulator, WideBatchGraphSimulator};
pub use countwise::CountSimulator;
pub use graph_core::{block_layout, shuffled_layout, StateWord};
pub use graphwise::GraphSimulator;
pub use replica::{BitwiseProtocol, ReplicaSimulator, MAX_LANES, MAX_PLANES};

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::observe::{Observation, SimObserver};

/// Stable per-engine tags and header helpers for the snapshot format.
///
/// Every engine's [`Simulator::snapshot_state`] payload starts with its
/// tag byte plus a `(n, |Σ|)` configuration echo, and
/// [`Simulator::restore_state`] validates both against the live simulator
/// — restoring a payload into the wrong engine or the wrong configuration
/// is a clean [`CheckpointError::Corrupt`], never silent wrong state. The
/// tag values are part of the on-disk format: never renumber them.
pub mod snapshot_tags {
    use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};

    /// [`AgentSimulator`](super::AgentSimulator).
    pub const AGENT: u8 = 1;
    /// [`CountSimulator`](super::CountSimulator).
    pub const COUNT: u8 = 2;
    /// [`BatchSimulator`](super::BatchSimulator).
    pub const BATCH: u8 = 3;
    /// [`GraphSimulator`](super::GraphSimulator).
    pub const GRAPH: u8 = 4;
    /// [`BatchGraphSimulator`](super::BatchGraphSimulator) (u8 states).
    pub const BATCH_GRAPH: u8 = 5;
    /// [`WideBatchGraphSimulator`](super::WideBatchGraphSimulator)
    /// (u16 states).
    pub const WIDE_BATCH_GRAPH: u8 = 6;
    /// Retired: the sequential USD engine `seq`, since removed (it drew
    /// `count`'s pairs from `count`'s layout). Reserved so its old
    /// checkpoints are rejected by tag — never reuse it.
    pub const USD_SEQ: u8 = 7;
    /// The skip-ahead USD engine in `usd-core` (`SkipAheadSimulator`).
    pub const USD_SKIP: u8 = 8;
    /// [`ReplicaSimulator`](super::ReplicaSimulator) (bit-parallel
    /// replica lanes).
    pub const REPLICA: u8 = 9;
    /// Retired: the sharded multi-core `pargraph` engine, since removed.
    /// Reserved so its old checkpoints are rejected by tag instead of
    /// being read as another engine's payload — never reuse it.
    pub const PAR_GRAPH: u8 = 10;

    /// Name of a tag for error messages.
    pub fn name(tag: u8) -> &'static str {
        match tag {
            AGENT => "agent",
            COUNT => "count",
            BATCH => "batch",
            GRAPH => "graph",
            BATCH_GRAPH => "batchgraph",
            WIDE_BATCH_GRAPH => "batchgraph-wide",
            USD_SEQ => "seq (retired)",
            USD_SKIP => "skip",
            REPLICA => "replica",
            PAR_GRAPH => "pargraph (retired)",
            _ => "unknown",
        }
    }

    /// Read an engine tag and require it to be `expected`.
    pub fn expect(
        r: &mut SnapshotReader<'_>,
        expected: u8,
        engine: &str,
    ) -> Result<(), CheckpointError> {
        let tag = r.get_u8()?;
        if tag != expected {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot is for engine '{}' (tag {tag}), not '{engine}'",
                name(tag)
            )));
        }
        Ok(())
    }

    /// Write the `(n, |Σ|)` configuration echo that follows the tag.
    pub fn write_config(w: &mut SnapshotWriter, n: u64, num_states: usize) {
        w.put_u64(n);
        w.put_u32(num_states as u32);
    }

    /// Read the configuration echo and require it to match the live
    /// simulator.
    pub fn expect_config(
        r: &mut SnapshotReader<'_>,
        n: u64,
        num_states: usize,
    ) -> Result<(), CheckpointError> {
        let sn = r.get_u64()?;
        let sk = r.get_u32()? as usize;
        if sn != n || sk != num_states {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot configuration (n={sn}, k={sk}) does not match the \
                 simulator (n={n}, k={num_states})"
            )));
        }
        Ok(())
    }
}
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Common interface of the simulation backends.
///
/// All backends expose the same observable state — population, per-state
/// counts, the interaction clock — and the same drivers. The trait is
/// object-safe, so callers can hold a `Box<dyn Simulator>` chosen at
/// runtime (e.g. from a `--backend` flag).
///
/// # Advancement granularity
///
/// [`Simulator::step`] always simulates exactly one interaction.
/// [`Simulator::advance`] lets a backend move the interaction clock by many
/// interactions in one call when it can do so exactly (batch leaping,
/// geometric no-op skipping); single-interaction backends default to one
/// step. [`Simulator::run_until`] consequently evaluates its stop predicate
/// at advancement boundaries: for `CountSimulator`/`AgentSimulator` that is
/// after every interaction; for `BatchSimulator` it is after every batch,
/// except that the batch backend shrinks its leaps near silence so that
/// stabilization times stay exact (see the `batched` module docs for the
/// precise guarantee).
pub trait Simulator {
    /// Population size `n`.
    fn population(&self) -> u64;

    /// Number of protocol states |Σ|.
    fn num_states(&self) -> usize;

    /// Current per-state counts (dense state indexing, length |Σ|).
    fn counts(&self) -> &[u64];

    /// Total interactions simulated (including no-ops).
    fn interactions(&self) -> u64;

    /// Interactions that changed the configuration.
    fn effective_interactions(&self) -> u64;

    /// Simulate exactly one interaction; returns whether it changed the
    /// configuration.
    fn step(&mut self, rng: &mut SimRng) -> bool;

    /// Advance the interaction clock by at most `max` interactions,
    /// returning how many were simulated (0 when `max == 0`, or when a
    /// backend certifies the configuration silent and stops the clock —
    /// callers treat 0 as termination and confirm via
    /// [`Simulator::is_silent`]).
    ///
    /// The default advances one interaction via [`Simulator::step`];
    /// leaping backends override [`Simulator::advance_changed`].
    fn advance(&mut self, rng: &mut SimRng, max: u64) -> u64 {
        self.advance_changed(rng, max).0
    }

    /// [`Simulator::advance`] that also reports whether the counts changed
    /// during the advancement. Drivers use the flag to skip re-evaluating
    /// stop predicates and the (O(|Σ|²)) silence check after advancements
    /// that provably left the configuration untouched — both are pure
    /// functions of the counts, so nothing can have changed their value.
    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let changed = self.step(rng);
        (1, changed)
    }

    /// Whether the configuration is silent (no interaction can change it).
    fn is_silent(&self) -> bool;

    /// Engine telemetry accumulated over this simulator's lifetime: what
    /// the *engine* did (phases, blocks, draws, flushes, fallbacks) to
    /// simulate what the counters above report the *protocol* did. All
    /// seven backends override this; the default returns a shared all-zero
    /// instance so external `Simulator` implementations keep compiling.
    /// Counters a backend has no mechanism for stay zero — see the
    /// per-backend table in `usd_core::backend`.
    fn telemetry(&self) -> &EngineTelemetry {
        EngineTelemetry::disabled()
    }

    /// Enable or disable coarse per-phase wall-clock spans in
    /// [`Simulator::telemetry`]. A no-op unless the engine records spans
    /// *and* the `span-timing` cargo feature is compiled in (see
    /// [`crate::telemetry`]); off by default, so un-instrumented runs
    /// never read the clock.
    fn set_span_timing(&mut self, _enabled: bool) {}

    /// Enable or disable per-event histogram recording
    /// ([`EventHistograms`]): skip lengths, block totals/sizes, sidecar
    /// flush sizes, fallback runs. Off by default — the harvest sites then
    /// cost one branch on a `None` — and a no-op on engines without
    /// instrumented quantities. Enabling mid-run starts fresh histograms;
    /// disabling discards them.
    fn set_histograms(&mut self, _enabled: bool) {}

    /// The per-event histograms recorded since
    /// [`Simulator::set_histograms`] enabled them, merged across the
    /// engine's phases (e.g. dense matching blocks plus every sparse
    /// skipper incarnation). `None` when recording is off or the engine
    /// records nothing. Returned by value for object safety.
    fn histograms(&self) -> Option<EventHistograms> {
        None
    }

    /// Serialize the engine's complete resume-relevant state — agent
    /// states or occupation counts, interaction clocks, phase/hysteresis
    /// state, sparse-sidecar contents, telemetry counters, and histogram
    /// buckets — into a checkpoint body, such that
    /// [`Simulator::restore_state`] on a freshly constructed simulator of
    /// the same configuration reproduces the uninterrupted run
    /// byte-for-byte (the RNG is owned by the driver and snapshotted
    /// separately via `SimRng::state`). All seven backends override this;
    /// the default keeps external `Simulator` implementations compiling
    /// and reports [`CheckpointError::Unsupported`].
    fn snapshot_state(&self, _w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Restore state written by [`Simulator::snapshot_state`] into this
    /// simulator, which must have been constructed with the same
    /// configuration (protocol, population, topology). Configuration
    /// mismatches and structurally invalid payloads return
    /// [`CheckpointError::Corrupt`] — never a panic, never silently wrong
    /// state; on error the simulator must be discarded.
    fn restore_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Number of independent replica lanes this simulator advances under
    /// its shared schedule. Scalar engines run exactly one; the
    /// bit-parallel [`ReplicaSimulator`] runs up to 64, with
    /// [`Simulator::counts`] and the clocks reporting **lane aggregates**
    /// (see its module docs for the semantics).
    fn lanes(&self) -> u32 {
        1
    }

    /// Per-state counts of one replica lane (dense state indexing,
    /// length |Σ|). Lane indices range over `0..lanes()`; scalar engines
    /// only have lane 0, whose counts are [`Simulator::counts`]. Returned
    /// by value for object safety.
    fn lane_counts(&self, lane: u32) -> Vec<u64> {
        assert_eq!(lane, 0, "scalar simulators have exactly one lane");
        self.counts().to_vec()
    }

    /// The interaction clock at which `lane` stabilized (its private
    /// clock — for replica engines the shared draw clock, directly
    /// comparable to a scalar run's [`Simulator::interactions`]), or
    /// `None` while it is still running.
    fn lane_stabilized_at(&self, lane: u32) -> Option<u64> {
        assert_eq!(lane, 0, "scalar simulators have exactly one lane");
        self.is_silent().then(|| self.interactions())
    }

    /// The current value of every live lane's private interaction clock:
    /// [`Simulator::interactions`] on scalar engines, the shared draw
    /// clock on replica engines (where the aggregate interaction clock
    /// advances by `popcount(live)` per draw). The clock an unstabilized
    /// lane's outcome is reported at.
    fn lane_clock(&self) -> u64 {
        self.interactions()
    }

    /// Snapshot the current count configuration.
    fn config(&self) -> CountConfig {
        CountConfig::from_counts(self.counts().to_vec())
    }

    /// Parallel time elapsed (= interactions / n).
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.population() as f64
    }

    /// Drive the simulator until `stop` returns true on the counts, the
    /// configuration is silent, or `budget` interactions have been
    /// simulated. Returns the number of interactions simulated by this
    /// call.
    ///
    /// `stop` is evaluated at advancement boundaries (see the trait docs),
    /// and only after advancements that changed the counts — stop
    /// predicates and silence are functions of the counts, so skipping
    /// unchanged boundaries is exact and keeps the single-step backends'
    /// no-op interactions O(1). Silence ends the run immediately — a
    /// silent configuration can never change, so there is nothing left to
    /// observe.
    fn run_until(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        stop: &mut dyn FnMut(&[u64]) -> bool,
    ) -> u64 {
        if stop(self.counts()) {
            return 0;
        }
        // A stop predicate is exactly an observer that ends the run: the
        // shared advance_observed driver owns the budget/termination/
        // silence edge cases once.
        self.advance_observed(rng, budget, &mut |obs: &Observation<'_>| !stop(obs.counts))
    }

    /// [`Simulator::run_until`] with silence as the only stop condition:
    /// runs to stabilization. Returns the interaction count at silence (or
    /// at budget exhaustion) and whether the run stabilized.
    fn run_to_silence(&mut self, rng: &mut SimRng, budget: u64) -> (u64, bool) {
        self.run_until(rng, budget, &mut |_| false);
        (self.interactions(), self.is_silent())
    }

    /// Drive the simulator for up to `budget` interactions, offering the
    /// `observer` an [`Observation`] at every
    /// advancement boundary that changed the counts: the current counts (a
    /// state checkpoint), the cumulative scheduled/effective counters, and
    /// the deltas since the previous observation. The call ends at budget
    /// exhaustion, silence, or when the observer returns `false`; it
    /// returns the number of interactions simulated.
    ///
    /// Observation granularity is the backend's advancement granularity —
    /// exact per-effective-event on the single-event engines
    /// (`agent`/`count`/`graph`/`skip`), block-boundary
    /// checkpoints on the leaping engines (`batch`/`batchgraph`); see the
    /// [`observe`](crate::observe) module docs for the per-backend table.
    /// [`SimObserver::max_stride`] bounds the scheduled interactions per
    /// advancement, forcing a finer checkpoint cadence on the leaping
    /// engines.
    fn advance_observed(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        observer: &mut dyn SimObserver,
    ) -> u64 {
        let start = self.interactions();
        if self.is_silent() {
            return 0;
        }
        let stride = observer.max_stride().unwrap_or(u64::MAX).max(1);
        let mut last_interactions = start;
        let mut last_effective = self.effective_interactions();
        loop {
            let done = self.interactions() - start;
            if done >= budget {
                return done;
            }
            let (advanced, changed) = self.advance_changed(rng, stride.min(budget - done));
            if advanced == 0 {
                return self.interactions() - start;
            }
            if changed {
                let interactions = self.interactions();
                let effective = self.effective_interactions();
                let keep_going = observer.observe(&Observation {
                    counts: self.counts(),
                    interactions,
                    effective,
                    delta_interactions: interactions - last_interactions,
                    delta_effective: effective - last_effective,
                });
                last_interactions = interactions;
                last_effective = effective;
                if !keep_going || self.is_silent() {
                    return interactions - start;
                }
            }
        }
    }
}
