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
use sim_stats::json::ObjectWriter;
use std::sync::OnceLock;

/// A telemetry struct's counters, listed once in snapshot and JSON order as
/// `(JSON name, counter)` pairs. `absorb`, `delta`, the checkpoint body and
/// `to_json` all iterate this table, so a counter added to it reaches every
/// surface.
pub(crate) trait CounterTable<const N: usize>: Copy + Default {
    /// The counters in schema order.
    fn counters(&mut self) -> [(&'static str, &mut u64); N];

    /// The counter values in schema order.
    fn values(&self) -> [(&'static str, u64); N] {
        let mut copy = *self;
        copy.counters().map(|(name, v)| (name, *v))
    }

    /// Apply `op(mine, theirs)` to each pair of matching counters.
    fn combine(&mut self, other: &Self, op: impl Fn(&mut u64, u64)) {
        for ((_, mine), (_, theirs)) in self.counters().into_iter().zip(other.values()) {
            op(mine, theirs);
        }
    }

    /// Append the counters to a checkpoint body.
    fn write_counters(&self, w: &mut SnapshotWriter) {
        for (_, v) in self.values() {
            w.put_u64(v);
        }
    }

    /// Read counters written by [`CounterTable::write_counters`] (every
    /// other field keeps its default).
    fn read_counters(r: &mut SnapshotReader<'_>) -> Result<Self, CheckpointError> {
        let mut out = Self::default();
        for (_, slot) in out.counters() {
            *slot = r.get_u64()?;
        }
        Ok(out)
    }

    /// Write the counters as integer fields of an open JSON object.
    fn json_counters(&self, o: &mut ObjectWriter) {
        for (name, v) in self.values() {
            o.u64(name, v);
        }
    }
}

/// Implement [`CounterTable`] over the listed fields, in schema order; each
/// counter's JSON name is its field name.
macro_rules! counter_table {
    ($ty:ty, $n:literal: $($field:ident),+) => {
        impl CounterTable<$n> for $ty {
            fn counters(&mut self) -> [(&'static str, &mut u64); $n] {
                [$((stringify!($field), &mut self.$field)),+]
            }
        }
    };
}

counter_table!(SparseStats, 12: events, skip_draws, event_draws, flushes, updates_deferred,
    updates_immediate, entries_applied, entries_cancelled, log_cache_hits, log_cache_misses,
    bypass_enters, bypass_exits);
counter_table!(SpanSet, 4: dense_ns, sparse_ns, gather_ns, apply_ns);
// The twelve engine-level counters; `sparse` and `spans` have their own.
counter_table!(EngineTelemetry, 12: scheduled, effective, dense_steps, blocks, block_draws,
    block_applied, fallback_literal, sparse_enters, sparse_exits, pair_draws, skip_draws,
    table_draws);

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
    /// All-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another batch of stats (used when harvesting the
    /// skipper's zeroed-on-take counters into the engine's totals).
    pub fn absorb(&mut self, other: SparseStats) {
        self.combine(&other, |mine, theirs| *mine += theirs);
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
    /// All-zero spans.
    pub fn new() -> Self {
        Self::default()
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

impl EngineTelemetry {
    /// All-zero counters with a disabled clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared all-zero instance the default
    /// [`Simulator::telemetry`](crate::Simulator::telemetry) returns for
    /// engines that predate (or opt out of) instrumentation.
    pub fn disabled() -> &'static EngineTelemetry {
        static DISABLED: OnceLock<EngineTelemetry> = OnceLock::new();
        DISABLED.get_or_init(EngineTelemetry::new)
    }

    /// Counter-wise difference `self − earlier` over every monotone
    /// counter (the two snapshots must come from the same engine, with
    /// `earlier` taken first — each subtraction would underflow
    /// otherwise). Spans subtract too; the clock carries over from
    /// `self`. This is the windowed view the flight recorder
    /// ([`timeline::TimelineRecorder`]) samples: rates computed on a
    /// delta describe *that window*, not the run so far.
    pub fn delta(&self, earlier: &EngineTelemetry) -> EngineTelemetry {
        let sub = |mine: &mut u64, theirs: u64| *mine -= theirs;
        let mut out = *self;
        out.combine(earlier, sub);
        out.sparse.combine(&earlier.sparse, sub);
        out.spans.combine(&earlier.spans, sub);
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
        self.write_counters(w);
        self.sparse.write_counters(w);
        self.spans.write_counters(w);
        w.put_bool(self.clock.enabled);
    }

    /// Deserialize a telemetry block written by
    /// [`EngineTelemetry::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<EngineTelemetry, CheckpointError> {
        let mut t = EngineTelemetry::read_counters(r)?;
        t.sparse = SparseStats::read_counters(r)?;
        t.spans = SpanSet::read_counters(r)?;
        t.clock.enabled = r.get_bool()?;
        Ok(t)
    }

    /// Schema-stable JSON object (fixed key order; counters, sub-objects
    /// `sparse` and `spans`, then the derived `rates`). The run-report
    /// surface of the CLI, `topology_sweep`, and `bench_backends`.
    pub fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        self.write_json(&mut o);
        o.finish()
    }

    /// Write the fields of [`EngineTelemetry::to_json`] into an open
    /// object (how reports nest the telemetry under a key).
    pub fn write_json(&self, o: &mut ObjectWriter) {
        self.json_counters(o);
        o.object("sparse", |o| self.sparse.json_counters(o))
            .object("spans", |o| self.spans.json_counters(o))
            .object("rates", |o| self.write_rates(o));
    }

    /// The derived rates as fixed-precision fields: the `rates` object of
    /// the run report and of every timeline sample.
    pub(crate) fn write_rates(&self, o: &mut ObjectWriter) {
        o.f64("effective_fraction", self.effective_fraction(), 6)
            .f64("cancel_rate", self.cancel_rate(), 6)
            .f64("fallback_rate", self.fallback_rate(), 6);
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
        // Balanced braces: the object must nest cleanly for the
        // `sim_stats::json` reader.
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

    /// Telemetry with all 28 counters set to distinct values.
    pub(crate) fn distinct_telemetry() -> EngineTelemetry {
        let mut t = EngineTelemetry::new();
        t.scheduled = 3_000;
        t.effective = 1_000;
        t.dense_steps = 3;
        t.blocks = 4;
        t.block_draws = 5;
        t.block_applied = 140;
        t.fallback_literal = 20;
        t.sparse_enters = 8;
        t.sparse_exits = 7;
        t.pair_draws = 10;
        t.skip_draws = 11;
        t.table_draws = 12;
        t.sparse.events = 13;
        t.sparse.skip_draws = 14;
        t.sparse.event_draws = 15;
        t.sparse.flushes = 16;
        t.sparse.updates_deferred = 17;
        t.sparse.updates_immediate = 18;
        t.sparse.entries_applied = 90;
        t.sparse.entries_cancelled = 10;
        t.sparse.log_cache_hits = 21;
        t.sparse.log_cache_misses = 22;
        t.sparse.bypass_enters = 23;
        t.sparse.bypass_exits = 24;
        t.spans.dense_ns = 25;
        t.spans.sparse_ns = 26;
        t.spans.gather_ns = 27;
        t.spans.apply_ns = 28;
        t
    }

    /// The exact bytes `EngineTelemetry::to_json` writes for
    /// [`distinct_telemetry`].
    pub(crate) const PINNED_TELEMETRY_JSON: &str =
        "{\"scheduled\":3000,\"effective\":1000,\"dense_steps\":3,\"blocks\":4,\
         \"block_draws\":5,\"block_applied\":140,\"fallback_literal\":20,\"sparse_enters\":8,\
         \"sparse_exits\":7,\"pair_draws\":10,\"skip_draws\":11,\"table_draws\":12,\
         \"sparse\":{\"events\":13,\"skip_draws\":14,\"event_draws\":15,\"flushes\":16,\
         \"updates_deferred\":17,\"updates_immediate\":18,\"entries_applied\":90,\
         \"entries_cancelled\":10,\"log_cache_hits\":21,\"log_cache_misses\":22,\
         \"bypass_enters\":23,\"bypass_exits\":24},\
         \"spans\":{\"dense_ns\":25,\"sparse_ns\":26,\"gather_ns\":27,\"apply_ns\":28},\
         \"rates\":{\"effective_fraction\":0.333333,\"cancel_rate\":0.100000,\
         \"fallback_rate\":0.125000}}";

    #[test]
    fn json_bytes_are_pinned() {
        assert_eq!(distinct_telemetry().to_json(), PINNED_TELEMETRY_JSON);
    }

    #[test]
    fn pinned_json_parses_with_the_documented_keys_in_order() {
        let v = sim_stats::json::parse(PINNED_TELEMETRY_JSON).unwrap();
        let keys = |v: &sim_stats::json::Value| v.keys().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            keys(&v),
            [
                "scheduled",
                "effective",
                "dense_steps",
                "blocks",
                "block_draws",
                "block_applied",
                "fallback_literal",
                "sparse_enters",
                "sparse_exits",
                "pair_draws",
                "skip_draws",
                "table_draws",
                "sparse",
                "spans",
                "rates",
            ]
        );
        assert_eq!(
            keys(v.get("sparse").unwrap()),
            [
                "events",
                "skip_draws",
                "event_draws",
                "flushes",
                "updates_deferred",
                "updates_immediate",
                "entries_applied",
                "entries_cancelled",
                "log_cache_hits",
                "log_cache_misses",
                "bypass_enters",
                "bypass_exits",
            ]
        );
        assert_eq!(
            keys(v.get("spans").unwrap()),
            ["dense_ns", "sparse_ns", "gather_ns", "apply_ns"]
        );
        assert_eq!(
            keys(v.get("rates").unwrap()),
            ["effective_fraction", "cancel_rate", "fallback_rate"]
        );
        // Every counter is distinct, so each value locates its own field.
        assert_eq!(v.get("table_draws").unwrap().as_u64(), Some(12));
        assert_eq!(
            v.get("sparse")
                .unwrap()
                .get("bypass_exits")
                .unwrap()
                .as_u64(),
            Some(24)
        );
    }

    #[test]
    fn snapshot_round_trips_every_counter() {
        let t = distinct_telemetry();
        let mut w = SnapshotWriter::new();
        t.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        // The 28 counters in snapshot order, then the clock switch.
        let words: Vec<u64> = bytes[..28 * 8]
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(
            words,
            [
                3_000, 1_000, 3, 4, 5, 140, 20, 8, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 90, 10,
                21, 22, 23, 24, 25, 26, 27, 28
            ]
        );
        assert_eq!(bytes[28 * 8..], [0]);
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(EngineTelemetry::read_snapshot(&mut r).unwrap(), t);
        let mut sum = t.sparse;
        sum.absorb(t.sparse);
        assert_eq!(sum.bypass_exits, 48);
        assert_eq!(t.delta(&t), EngineTelemetry::new());
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
