//! Engine telemetry: what the *engine* did to simulate the protocol.
//!
//! The paper-facing metrics ([`crate::metrics`]) account for what the
//! protocol did — interactions, parallel time, effective events. This
//! module accounts for what the simulation engine did to produce them:
//! phase transitions, block sizes drawn vs. applied, literal fallbacks,
//! sidecar flushes and their cancel rate, Fenwick updates deferred vs.
//! applied, log-cache hits, and RNG draw events by kind. Every backend
//! owns an [`EngineTelemetry`] and exposes it through
//! [`Simulator::telemetry`](crate::Simulator::telemetry); the counters are
//! monotone over a simulator's lifetime and always on (plain `u64`
//! increments on paths that already do comparable bookkeeping).
//!
//! # Which counters are live where
//!
//! Counters an engine has no mechanism for stay zero — a zero is "not
//! applicable", never "measured zero". The per-backend availability table
//! lives in [`usd_core::backend`](../../usd_core/backend/index.html)
//! (mirroring the observation-granularity table in [`crate::observe`]);
//! the short version: `scheduled`/`effective` are live on all eight
//! backends, the block counters on `batch`/`batchgraph`, the sparse and
//! phase counters on `graph`/`batchgraph`, the draw-kind counters wherever
//! the engine itself performs the draws (the `seq`/`skip` wrappers report
//! totals only).
//!
//! # Time-resolved views
//!
//! The counters here are cumulative; the [`timeline`] submodule resolves
//! them in time. A [`timeline::TimelineRecorder`] samples counter
//! **deltas** at a fixed cadence of the scheduled clock (per-backend
//! cadence-cost table in [`crate::observe`]), and
//! [`timeline::EventHistograms`] bucket the per-event quantities the
//! counters only total — geometric skip lengths, sparse block totals,
//! flush sizes — into log-spaced p50/p90/p99 summaries (per-backend
//! availability alongside the counter table in
//! [`usd_core::backend`](../../usd_core/backend/index.html)).
//!
//! # Timing spans
//!
//! Coarse wall-clock spans ([`SpanSet`]) are measured at advancement
//! boundaries — never per event — behind a double gate: the `span-timing`
//! cargo feature compiles the monotonic clock in ([`SpanClock`] is
//! zero-sized logic without it), and the runtime switch
//! ([`Simulator::set_span_timing`](crate::Simulator::set_span_timing))
//! keeps even the enabled build free of `Instant` reads until a caller
//! asks. With the feature off or the switch off, spans read 0.

pub mod timeline;

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};

/// Counters owned by the shared sparse-phase skipper
/// (`pop_proto::simulator::sparse`), harvested into
/// [`EngineTelemetry::sparse`] by the graph engines at advancement
/// boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseStats {
    /// Effective events drawn by the skipper.
    pub events: u64,
    /// Geometric no-op-skip draw events (one per effective-event attempt).
    pub skip_draws: u64,
    /// Weighted edge-selection draw events (exactly one per event).
    pub event_draws: u64,
    /// Batched sidecar flushes (coalesced Fenwick passes).
    pub flushes: u64,
    /// Weight changes parked in the sidecar (deferred point-updates).
    pub updates_deferred: u64,
    /// Weight changes applied to the tree immediately (deferral bypassed).
    pub updates_immediate: u64,
    /// Sidecar entries written to the tree at flush time.
    pub entries_applied: u64,
    /// Sidecar entries whose weight had toggled back to the tree's value
    /// and were skipped at flush (or evicted early) — the coalescing win.
    pub entries_cancelled: u64,
    /// Geometric inversion constant reused (same `W` as the previous skip).
    pub log_cache_hits: u64,
    /// Inversion constant recomputed (distinct `W`).
    pub log_cache_misses: u64,
    /// Adaptive-deferral transitions into bypass (measured cancel rate too
    /// low for coalescing to pay).
    pub bypass_enters: u64,
    /// Adaptive-deferral probes back into deferral.
    pub bypass_exits: u64,
}

impl SparseStats {
    /// All-zero stats (`const`, for static defaults).
    pub const fn new() -> Self {
        SparseStats {
            events: 0,
            skip_draws: 0,
            event_draws: 0,
            flushes: 0,
            updates_deferred: 0,
            updates_immediate: 0,
            entries_applied: 0,
            entries_cancelled: 0,
            log_cache_hits: 0,
            log_cache_misses: 0,
            bypass_enters: 0,
            bypass_exits: 0,
        }
    }

    /// Accumulate another batch of stats (used when harvesting the
    /// skipper's zeroed-on-take counters into the engine's totals).
    pub fn absorb(&mut self, other: SparseStats) {
        self.events += other.events;
        self.skip_draws += other.skip_draws;
        self.event_draws += other.event_draws;
        self.flushes += other.flushes;
        self.updates_deferred += other.updates_deferred;
        self.updates_immediate += other.updates_immediate;
        self.entries_applied += other.entries_applied;
        self.entries_cancelled += other.entries_cancelled;
        self.log_cache_hits += other.log_cache_hits;
        self.log_cache_misses += other.log_cache_misses;
        self.bypass_enters += other.bypass_enters;
        self.bypass_exits += other.bypass_exits;
    }

    /// Fraction of flush-resolved sidecar entries that had toggled back
    /// (cancelled) before touching the tree — the measured quantity the
    /// adaptive deferral decides on. 0.0 when nothing has been flushed.
    pub fn cancel_rate(&self) -> f64 {
        let resolved = self.entries_applied + self.entries_cancelled;
        if resolved == 0 {
            0.0
        } else {
            self.entries_cancelled as f64 / resolved as f64
        }
    }
}

/// Coarse per-phase wall-clock spans in nanoseconds (see the module docs
/// for the gating; all zero unless span timing is compiled in *and*
/// enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSet {
    /// Dense-phase advancement time (literal steps / block scans).
    pub dense_ns: u64,
    /// Sparse-phase advancement time (skipper-driven events).
    pub sparse_ns: u64,
    /// Block gather passes (RNG + endpoint + state gathers).
    pub gather_ns: u64,
    /// Block apply passes (the matching scan / batch application).
    pub apply_ns: u64,
}

impl SpanSet {
    /// All-zero spans (`const`, for static defaults).
    pub const fn new() -> Self {
        SpanSet {
            dense_ns: 0,
            sparse_ns: 0,
            gather_ns: 0,
            apply_ns: 0,
        }
    }
}

/// The feature- and runtime-gated monotonic clock behind [`SpanSet`].
/// Without the `span-timing` cargo feature every method is a no-op that
/// the optimizer deletes; with it, `enabled` still defaults to off so
/// span timing costs nothing until requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanClock {
    /// Runtime switch (set through
    /// [`Simulator::set_span_timing`](crate::Simulator::set_span_timing)).
    pub enabled: bool,
}

/// An opaque span start token from [`SpanClock::start`].
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    #[cfg(feature = "span-timing")]
    start: Option<std::time::Instant>,
}

impl SpanClock {
    /// A disabled clock (`const`).
    pub const fn new() -> Self {
        SpanClock { enabled: false }
    }

    /// Start a span (reads the monotonic clock only when compiled in and
    /// enabled).
    #[inline]
    pub fn start(&self) -> SpanToken {
        SpanToken {
            #[cfg(feature = "span-timing")]
            start: if self.enabled {
                Some(std::time::Instant::now())
            } else {
                None
            },
        }
    }

    /// Nanoseconds since `token` was started (0 when timing is off).
    #[inline]
    pub fn elapsed_ns(&self, token: SpanToken) -> u64 {
        #[cfg(feature = "span-timing")]
        let ns = token
            .start
            .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        #[cfg(not(feature = "span-timing"))]
        let ns = {
            let _ = token;
            0
        };
        ns
    }
}

/// Monotone instrumentation counters one simulation engine populates over
/// its lifetime, plus the coarse timing spans. See the module docs for
/// which counters are live on which backend; every counter is a *count of
/// engine actions*, exactly defined at its increment site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTelemetry {
    /// Scheduled interactions simulated — always equals the engine's
    /// interaction clock (`Simulator::interactions`), pinned by test.
    pub scheduled: u64,
    /// Effective (configuration-changing) interactions — always equals
    /// `Simulator::effective_interactions`, pinned by test.
    pub effective: u64,
    /// Literal one-at-a-time steps (per-event engines count every
    /// interaction here; block engines only their literal `step()` calls).
    pub dense_steps: u64,
    /// Dense blocks / batches launched (chunk scans, clique batches).
    pub blocks: u64,
    /// Scheduled draws processed through blocks (block sizes *drawn*).
    pub block_draws: u64,
    /// Clean block applications (matching members / collision-free batch
    /// events — block work *applied* from block-start state).
    pub block_applied: u64,
    /// Literal fallbacks inside blocks: dirty-endpoint draws re-simulated
    /// from current states (`batchgraph`), collision interactions stepped
    /// literally (`batch`).
    pub fallback_literal: u64,
    /// Dense → sparse phase escalations.
    pub sparse_enters: u64,
    /// Sparse → dense phase hand-backs (activity recovered).
    pub sparse_exits: u64,
    /// Pair/edge-selection draw events in the dense phase (one per
    /// scheduled pair or block draw).
    pub pair_draws: u64,
    /// Geometric skip draw events performed by the engine itself (the
    /// clique engines' no-op leaps; sparse-phase skips are counted in
    /// [`EngineTelemetry::sparse`]).
    pub skip_draws: u64,
    /// Batched table draws (hypergeometric rows / binomial splits sampled
    /// per batch).
    pub table_draws: u64,
    /// Sparse-phase skipper counters (harvested; see [`SparseStats`]).
    pub sparse: SparseStats,
    /// Coarse per-phase wall-clock spans (gated; see [`SpanSet`]).
    pub spans: SpanSet,
    /// The gated clock the engine stamps spans with.
    pub clock: SpanClock,
}

/// The shared all-zero telemetry returned by the default
/// [`Simulator::telemetry`](crate::Simulator::telemetry) for engines that
/// predate (or opt out of) instrumentation.
static DISABLED: EngineTelemetry = EngineTelemetry::new();

impl EngineTelemetry {
    /// All-zero counters with a disabled clock (`const`).
    pub const fn new() -> Self {
        EngineTelemetry {
            scheduled: 0,
            effective: 0,
            dense_steps: 0,
            blocks: 0,
            block_draws: 0,
            block_applied: 0,
            fallback_literal: 0,
            sparse_enters: 0,
            sparse_exits: 0,
            pair_draws: 0,
            skip_draws: 0,
            table_draws: 0,
            sparse: SparseStats::new(),
            spans: SpanSet::new(),
            clock: SpanClock::new(),
        }
    }

    /// The static all-zero instance (default trait implementation).
    pub fn disabled() -> &'static EngineTelemetry {
        &DISABLED
    }

    /// Counter-wise difference `self − earlier` over every monotone
    /// counter (the two snapshots must come from the same engine, with
    /// `earlier` taken first — each subtraction would underflow
    /// otherwise). Spans subtract too; the clock carries over from
    /// `self`. This is the windowed view the flight recorder
    /// ([`timeline::TimelineRecorder`]) samples: rates computed on a
    /// delta describe *that window*, not the run so far.
    pub fn delta(&self, earlier: &EngineTelemetry) -> EngineTelemetry {
        let mut out = *self;
        out.scheduled -= earlier.scheduled;
        out.effective -= earlier.effective;
        out.dense_steps -= earlier.dense_steps;
        out.blocks -= earlier.blocks;
        out.block_draws -= earlier.block_draws;
        out.block_applied -= earlier.block_applied;
        out.fallback_literal -= earlier.fallback_literal;
        out.sparse_enters -= earlier.sparse_enters;
        out.sparse_exits -= earlier.sparse_exits;
        out.pair_draws -= earlier.pair_draws;
        out.skip_draws -= earlier.skip_draws;
        out.table_draws -= earlier.table_draws;
        out.sparse.events -= earlier.sparse.events;
        out.sparse.skip_draws -= earlier.sparse.skip_draws;
        out.sparse.event_draws -= earlier.sparse.event_draws;
        out.sparse.flushes -= earlier.sparse.flushes;
        out.sparse.updates_deferred -= earlier.sparse.updates_deferred;
        out.sparse.updates_immediate -= earlier.sparse.updates_immediate;
        out.sparse.entries_applied -= earlier.sparse.entries_applied;
        out.sparse.entries_cancelled -= earlier.sparse.entries_cancelled;
        out.sparse.log_cache_hits -= earlier.sparse.log_cache_hits;
        out.sparse.log_cache_misses -= earlier.sparse.log_cache_misses;
        out.sparse.bypass_enters -= earlier.sparse.bypass_enters;
        out.sparse.bypass_exits -= earlier.sparse.bypass_exits;
        out.spans.dense_ns -= earlier.spans.dense_ns;
        out.spans.sparse_ns -= earlier.spans.sparse_ns;
        out.spans.gather_ns -= earlier.spans.gather_ns;
        out.spans.apply_ns -= earlier.spans.apply_ns;
        out
    }

    /// Effective fraction of the schedule: `effective / scheduled`
    /// (0.0 before any interaction).
    pub fn effective_fraction(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            self.effective as f64 / self.scheduled as f64
        }
    }

    /// Sidecar cancel rate at flush time (see [`SparseStats::cancel_rate`]).
    pub fn cancel_rate(&self) -> f64 {
        self.sparse.cancel_rate()
    }

    /// Fraction of block-phase applications that fell back to a literal
    /// step: `fallback_literal / (block_applied + fallback_literal)`
    /// (0.0 when no block work ran).
    pub fn fallback_rate(&self) -> f64 {
        let applied = self.block_applied + self.fallback_literal;
        if applied == 0 {
            0.0
        } else {
            self.fallback_literal as f64 / applied as f64
        }
    }

    /// Serialize every counter, the sparse sub-block, the spans, and the
    /// clock switch into a checkpoint body (fixed field order; the inverse
    /// of [`EngineTelemetry::read_snapshot`]).
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        for v in [
            self.scheduled,
            self.effective,
            self.dense_steps,
            self.blocks,
            self.block_draws,
            self.block_applied,
            self.fallback_literal,
            self.sparse_enters,
            self.sparse_exits,
            self.pair_draws,
            self.skip_draws,
            self.table_draws,
            self.sparse.events,
            self.sparse.skip_draws,
            self.sparse.event_draws,
            self.sparse.flushes,
            self.sparse.updates_deferred,
            self.sparse.updates_immediate,
            self.sparse.entries_applied,
            self.sparse.entries_cancelled,
            self.sparse.log_cache_hits,
            self.sparse.log_cache_misses,
            self.sparse.bypass_enters,
            self.sparse.bypass_exits,
            self.spans.dense_ns,
            self.spans.sparse_ns,
            self.spans.gather_ns,
            self.spans.apply_ns,
        ] {
            w.put_u64(v);
        }
        w.put_bool(self.clock.enabled);
    }

    /// Deserialize a telemetry block written by
    /// [`EngineTelemetry::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<EngineTelemetry, CheckpointError> {
        let mut t = EngineTelemetry::new();
        for slot in [
            &mut t.scheduled,
            &mut t.effective,
            &mut t.dense_steps,
            &mut t.blocks,
            &mut t.block_draws,
            &mut t.block_applied,
            &mut t.fallback_literal,
            &mut t.sparse_enters,
            &mut t.sparse_exits,
            &mut t.pair_draws,
            &mut t.skip_draws,
            &mut t.table_draws,
            &mut t.sparse.events,
            &mut t.sparse.skip_draws,
            &mut t.sparse.event_draws,
            &mut t.sparse.flushes,
            &mut t.sparse.updates_deferred,
            &mut t.sparse.updates_immediate,
            &mut t.sparse.entries_applied,
            &mut t.sparse.entries_cancelled,
            &mut t.sparse.log_cache_hits,
            &mut t.sparse.log_cache_misses,
            &mut t.sparse.bypass_enters,
            &mut t.sparse.bypass_exits,
            &mut t.spans.dense_ns,
            &mut t.spans.sparse_ns,
            &mut t.spans.gather_ns,
            &mut t.spans.apply_ns,
        ] {
            *slot = r.get_u64()?;
        }
        t.clock.enabled = r.get_bool()?;
        Ok(t)
    }

    /// Schema-stable JSON object (fixed key order; counters, sub-objects
    /// `sparse` and `spans`, then the derived `rates`). The run-report
    /// surface of the CLI, `topology_sweep`, and `bench_backends`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scheduled\":{},\"effective\":{},\"dense_steps\":{},\
             \"blocks\":{},\"block_draws\":{},\"block_applied\":{},\
             \"fallback_literal\":{},\"sparse_enters\":{},\"sparse_exits\":{},\
             \"pair_draws\":{},\"skip_draws\":{},\"table_draws\":{},\
             \"sparse\":{{\"events\":{},\"skip_draws\":{},\"event_draws\":{},\
             \"flushes\":{},\"updates_deferred\":{},\"updates_immediate\":{},\
             \"entries_applied\":{},\"entries_cancelled\":{},\
             \"log_cache_hits\":{},\"log_cache_misses\":{},\
             \"bypass_enters\":{},\"bypass_exits\":{}}},\
             \"spans\":{{\"dense_ns\":{},\"sparse_ns\":{},\"gather_ns\":{},\
             \"apply_ns\":{}}},\
             \"rates\":{{\"effective_fraction\":{:.6},\"cancel_rate\":{:.6},\
             \"fallback_rate\":{:.6}}}}}",
            self.scheduled,
            self.effective,
            self.dense_steps,
            self.blocks,
            self.block_draws,
            self.block_applied,
            self.fallback_literal,
            self.sparse_enters,
            self.sparse_exits,
            self.pair_draws,
            self.skip_draws,
            self.table_draws,
            self.sparse.events,
            self.sparse.skip_draws,
            self.sparse.event_draws,
            self.sparse.flushes,
            self.sparse.updates_deferred,
            self.sparse.updates_immediate,
            self.sparse.entries_applied,
            self.sparse.entries_cancelled,
            self.sparse.log_cache_hits,
            self.sparse.log_cache_misses,
            self.sparse.bypass_enters,
            self.sparse.bypass_exits,
            self.spans.dense_ns,
            self.spans.sparse_ns,
            self.spans.gather_ns,
            self.spans.apply_ns,
            self.effective_fraction(),
            self.cancel_rate(),
            self.fallback_rate(),
        )
    }

    /// Human-readable aligned table (the CLI's `--telemetry` /
    /// `--telemetry=table` rendering). Zero-valued counter groups an
    /// engine has no mechanism for are omitted; the derived rates always
    /// print.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: u64| {
            out.push_str(&format!("  {k:<24} {v}\n"));
        };
        line("scheduled", self.scheduled);
        line("effective", self.effective);
        line("dense_steps", self.dense_steps);
        if self.blocks > 0 {
            line("blocks", self.blocks);
            line("block_draws", self.block_draws);
            line("block_applied", self.block_applied);
            line("fallback_literal", self.fallback_literal);
        }
        if self.pair_draws + self.skip_draws + self.table_draws > 0 {
            line("pair_draws", self.pair_draws);
            line("skip_draws", self.skip_draws);
            line("table_draws", self.table_draws);
        }
        if self.sparse_enters > 0 || self.sparse.events > 0 {
            line("sparse_enters", self.sparse_enters);
            line("sparse_exits", self.sparse_exits);
            line("sparse.events", self.sparse.events);
            line("sparse.skip_draws", self.sparse.skip_draws);
            line("sparse.event_draws", self.sparse.event_draws);
            line("sparse.flushes", self.sparse.flushes);
            line("sparse.updates_deferred", self.sparse.updates_deferred);
            line("sparse.updates_immediate", self.sparse.updates_immediate);
            line("sparse.entries_applied", self.sparse.entries_applied);
            line("sparse.entries_cancelled", self.sparse.entries_cancelled);
            line("sparse.log_cache_hits", self.sparse.log_cache_hits);
            line("sparse.log_cache_misses", self.sparse.log_cache_misses);
            line("sparse.bypass_enters", self.sparse.bypass_enters);
            line("sparse.bypass_exits", self.sparse.bypass_exits);
        }
        if self.spans != SpanSet::new() {
            line("spans.dense_ns", self.spans.dense_ns);
            line("spans.sparse_ns", self.spans.sparse_ns);
            line("spans.gather_ns", self.spans.gather_ns);
            line("spans.apply_ns", self.spans.apply_ns);
        }
        out.push_str(&format!(
            "  {:<24} {:.6}\n  {:<24} {:.6}\n  {:<24} {:.6}\n",
            "effective_fraction",
            self.effective_fraction(),
            "cancel_rate",
            self.cancel_rate(),
            "fallback_rate",
            self.fallback_rate(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_all_zero() {
        let t = EngineTelemetry::disabled();
        assert_eq!(t.scheduled, 0);
        assert_eq!(t.effective_fraction(), 0.0);
        assert_eq!(t.cancel_rate(), 0.0);
        assert_eq!(t.fallback_rate(), 0.0);
    }

    #[test]
    fn rates_compute_from_counters() {
        let mut t = EngineTelemetry::new();
        t.scheduled = 200;
        t.effective = 50;
        t.block_applied = 40;
        t.fallback_literal = 10;
        t.sparse.entries_applied = 30;
        t.sparse.entries_cancelled = 90;
        assert_eq!(t.effective_fraction(), 0.25);
        assert_eq!(t.fallback_rate(), 0.2);
        assert_eq!(t.cancel_rate(), 0.75);
    }

    #[test]
    fn json_is_schema_stable_and_self_describing() {
        let mut t = EngineTelemetry::new();
        t.scheduled = 7;
        t.effective = 3;
        let j = t.to_json();
        for key in [
            "\"scheduled\":7",
            "\"effective\":3",
            "\"sparse\":{",
            "\"spans\":{",
            "\"rates\":{",
            "\"effective_fraction\":",
            "\"cancel_rate\":",
            "\"fallback_rate\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces: the object must nest cleanly for downstream
        // hand-rolled parsers.
        let mut depth = 0i32;
        for c in j.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced braces in {j}");
    }

    #[test]
    fn delta_subtracts_every_counter() {
        let mut earlier = EngineTelemetry::new();
        earlier.scheduled = 100;
        earlier.effective = 40;
        earlier.sparse.events = 7;
        earlier.spans.dense_ns = 5;
        let mut later = earlier;
        later.scheduled = 250;
        later.effective = 90;
        later.sparse.events = 11;
        later.spans.dense_ns = 9;
        let d = later.delta(&earlier);
        assert_eq!(d.scheduled, 150);
        assert_eq!(d.effective, 50);
        assert_eq!(d.sparse.events, 4);
        assert_eq!(d.spans.dense_ns, 4);
        // Delta against itself is all-zero; delta against zero is identity.
        let z = later.delta(&later);
        assert_eq!(z.scheduled, 0);
        assert_eq!(z.sparse.events, 0);
        let id = later.delta(&EngineTelemetry::new());
        assert_eq!(id.scheduled, later.scheduled);
        assert_eq!(id.sparse.events, later.sparse.events);
    }

    #[test]
    fn sparse_stats_absorb_accumulates() {
        let mut a = SparseStats::new();
        let mut b = SparseStats::new();
        a.events = 5;
        a.entries_cancelled = 2;
        b.events = 7;
        b.entries_applied = 4;
        a.absorb(b);
        assert_eq!(a.events, 12);
        assert_eq!(a.entries_applied, 4);
        assert_eq!(a.entries_cancelled, 2);
    }

    #[test]
    fn span_clock_disabled_reads_zero() {
        let clock = SpanClock::new();
        let t = clock.start();
        assert_eq!(clock.elapsed_ns(t), 0);
    }

    #[test]
    fn table_renders_rates() {
        let mut t = EngineTelemetry::new();
        t.scheduled = 10;
        t.effective = 5;
        let s = t.table();
        assert!(s.contains("scheduled"));
        assert!(s.contains("effective_fraction"));
        // Block/sparse groups absent when all-zero.
        assert!(!s.contains("block_draws"));
        assert!(!s.contains("sparse.flushes"));
    }
}
