//! Shared block-leaping sparse-phase engine for the graph simulators.
//!
//! [`GraphSimulator`](super::GraphSimulator) and
//! [`BatchGraphSimulator`](super::BatchGraphSimulator) handle
//! no-op-dominated stretches the same way: a Fenwick tree over per-edge
//! *active-orientation* weights turns the embedded no-op runs into exact
//! geometric skips (success probability `W / 2m`) and effective events into
//! weighted draws. Until PR 5 each engine carried its own copy of that
//! machinery and paid O(d log m) Fenwick point-updates on **every**
//! effective event. This module is the one shared implementation, made
//! block-leaping:
//!
//! * **Incremental clean weight.** The exact total active weight `W` is
//!   maintained as a plain counter (`w_true`), so the skip probability and
//!   the silence test (`W == 0`) never wait on the tree.
//! * **Deferred, coalesced Fenwick updates.** An effective event changes
//!   the weights of the ≤ 2d edges incident to its endpoints. Instead of
//!   walking the tree for each, the new weights are parked in a small
//!   *pending sidecar* (edge → exact current weight, plus the tree's stale
//!   value) and the tree is left stale. Once per block —
//!   [`FLUSH_EVENTS`] events, or earlier if the sidecar grows past
//!   [`PENDING_MAX`] — the sidecar is applied to the tree in one batched
//!   pass that skips every edge whose weight returned to its stored tree
//!   value. On frontier dynamics (a cycle or torus boundary walking back
//!   and forth) most per-event deltas cancel within a block, so the tree
//!   sees a small fraction of the point-updates the per-event engines paid.
//! * **Exact sampling from the stale tree, no rejection.** An effective
//!   event's edge is resolved from **one** uniform draw below `W`. When
//!   the active set is small enough at sparse entry ([`TRACK_MAX`]), the
//!   sidecar is seeded with the *entire* active set ("tracked" mode) and
//!   the draw resolves by a plain prefix scan of the edge-sorted sidecar
//!   — no tree access at all. Otherwise a Fenwick descent over
//!   *corrected* node sums ([`FenwickSampler::find_adjusted`]) is used:
//!   the sidecar's per-edge deltas (`true − tree`), rebuilt lazily into a
//!   sorted prefix-sum array when the first draw after a weight change
//!   needs them, correct each visited node on the way down. Either way
//!   the selected edge is a pure function of the draw and the *true*
//!   weights — exactly what a fully-materialized tree would yield — so
//!   the trajectory is bit-identical whether updates are deferred,
//!   applied immediately, or adaptively mixed (see [`DeferralPolicy`]),
//!   and no draw is ever rejected.
//! * **Adaptive deferral.** Coalescing pays only when deltas actually
//!   cancel before the flush. The skipper measures its own flush-time
//!   cancel rate over a rolling window of [`ADAPT_WINDOW`] flushes
//!   (reported as [`SparseStats::cancel_rate`]) and, when the rate falls
//!   below [`BYPASS_CANCEL_MIN`], bypasses the sidecar entirely —
//!   immediate Fenwick point-updates, zero sidecar bookkeeping — then
//!   re-probes deferral after [`BYPASS_PROBE_EVENTS`] events. Because the
//!   sampler is draw-identical either way, the mode switch is invisible to
//!   the trajectory (pinned by test below).
//! * **Negative-binomial block totals.** The no-op run before each event is
//!   still an exact `Geom(W/2m)` draw, but consecutive events of a block
//!   usually leave `W` unchanged (a moving frontier keeps the same number
//!   of active orientations), so the block's aggregate skip is one
//!   negative-binomial-style total: the inversion constant `ln(1 − p)` is
//!   computed once per distinct `W` and reused across the block
//!   ([`SimRng::negative_binomial`] is the same aggregation in one call,
//!   and the distributional tests below pin the two against each other),
//!   and the caller charges the interaction clock once per block.
//!
//! Exactness is unchanged from the per-event skipper: the skip law, the
//! weighted event draw, and the silence test all see the *true* weights at
//! every event — only the tree's materialization of them is deferred. The
//! phase-hysteresis constants ([`SPARSE_TRIGGER_NOOPS`],
//! [`DENSE_ENTER_INV`]) live here too, and both engines apply the trigger
//! the same way: a run of `SPARSE_TRIGGER_NOOPS` consecutive no-op *draws*
//! (counted per draw, across block boundaries) hands off to the skipper.
//! The two graph engines therefore share one escalation rule as well as
//! one set of constants.
//!
//! The skipper also owns its slice of the engine-telemetry layer
//! ([`crate::telemetry`]): every draw, flush, deferred/immediate update,
//! coalesced entry, and bypass transition increments a
//! [`SparseStats`] counter, harvested by the owning engine via
//! [`SparseSkipper::take_stats`] at advancement boundaries.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::sampling::FenwickSampler;
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::{CounterTable, SparseStats};
use sim_stats::rng::SimRng;

/// Consecutive no-op draws in the dense/block phase that trigger the switch
/// to the sparse skipper. At activity fraction `f` the probability of this
/// many consecutive no-ops is `(1 − f)^1024` — negligible above `f ≈ 1/64`,
/// near-certain once the fraction truly collapses, so spurious O(m)
/// rebuilds are rare and real collapses are caught within ~1k steps.
pub(crate) const SPARSE_TRIGGER_NOOPS: u32 = 1024;

/// Activity fraction at which the sparse phase drops its Fenwick tree and
/// returns to dense stepping: skipping `< 32` no-ops per event no longer
/// repays the sparse bookkeeping. The wide hysteresis band versus
/// [`SPARSE_TRIGGER_NOOPS`] (~1/1024) prevents rebuild thrash.
pub(crate) const DENSE_ENTER_INV: u64 = 32;

/// Effective events between batched Fenwick flushes (the sparse block
/// length). Large enough that a wandering frontier's weight deltas get a
/// real chance to cancel before the tree is touched, small enough that the
/// sidecar scan stays a few cache lines.
const FLUSH_EVENTS: u32 = 64;

/// Sidecar capacity bound: a flush is forced before the pending list
/// outgrows one page worth of entries, keeping the delta-correction array
/// small even on high-degree graphs where one event parks 2d edges.
const PENDING_MAX: usize = 512;

/// Sidecar size above which toggled-back entries (weight equal to the
/// tree's again) are evicted eagerly. Small sidecars rebuild their delta
/// array in a couple of cache lines, so eviction bookkeeping would cost
/// more than it saves; large ones (high-degree frontiers) shrink
/// measurably. Untracked mode only — the tracked sidecar must keep every
/// active edge to preserve its coverage invariant.
const EVICT_ABOVE: usize = 48;

/// Active-edge count at sparse entry below which the sidecar is seeded
/// with the *entire* active set ("tracked" mode): with every edge of
/// nonzero true weight in the sidecar, an event draw resolves by a plain
/// prefix scan of the (edge-sorted) sidecar — no Fenwick descent, no
/// delta corrections — and weight updates are O(1) in-place writes. This
/// is the frontier regime the skipper exists for (a cycle or torus
/// boundary keeps `W` in the tens), and the scan touches a couple of
/// cache lines.
const TRACK_MAX: usize = 256;

/// Tracked-mode sidecar length up to which draws use the prefix scan;
/// longer tracked sidecars fall back to the corrected descent (the scan
/// is linear, the descent logarithmic — the crossover sits around a
/// cache line's worth of entries).
const SCAN_MAX: usize = 64;

/// Tracked sidecar length (post-flush, zero-weight entries dropped) above
/// which tracked mode is abandoned: the active set has outgrown the
/// sidecar bounds, so the tree — fully materialized by the flush — takes
/// over and deferral continues in untracked mode.
const TRACK_DROP: usize = 512;

/// Flushes per adaptive-deferral measurement window: the cancel rate is
/// evaluated once this many flushes (≈ `ADAPT_WINDOW · FLUSH_EVENTS`
/// events) have been observed, then the window resets.
const ADAPT_WINDOW: u32 = 8;

/// Resolved sidecar entries (applied + cancelled) that end a measurement
/// window early. High-churn low-cancel workloads (a torus patch perimeter
/// parking ~4 edges per event) gather a trustworthy cancel estimate within
/// a couple of flushes — evaluating then, instead of waiting out
/// [`ADAPT_WINDOW`] flushes, keeps the expensive deferral probes short.
/// High-cancel workloads resolve only a handful of entries per flush and
/// fall back to the flush-count window.
const RESOLVED_WINDOW: u64 = 256;

/// Cancel-rate floor below which deferral is bypassed: when fewer than a
/// quarter of flush-resolved sidecar entries had toggled back, coalescing
/// saves less than the sidecar costs (measured on the torus endgame, where
/// an eroding patch perimeter almost never revisits an edge within a
/// block) and immediate point-updates win.
const BYPASS_CANCEL_MIN: f64 = 0.25;

/// Events spent in bypass before re-probing deferral. Long enough that the
/// bypass duty cycle dominates (~99% at the default window), short enough
/// that a regime flip back to frontier churn is caught within a few tens
/// of thousands of events.
const BYPASS_PROBE_EVENTS: u64 = 32_768;

/// Maximum effective events [`BatchGraphSimulator`](super::BatchGraphSimulator)
/// applies per sparse advancement (its sparse-phase observation
/// granularity — one block checkpoint summarizes up to this many events).
/// [`GraphSimulator`](super::GraphSimulator) keeps its exact per-event
/// granularity by advancing one event at a time; the Fenwick amortization
/// above is shared either way because the sidecar persists across calls.
pub(crate) const SPARSE_BLOCK_EVENTS: u64 = 64;

/// How the skipper materializes weight changes into its Fenwick tree.
/// [`DeferralPolicy::Adaptive`] (the default) defers through the sidecar
/// and bypasses when the measured cancel rate says coalescing cannot pay;
/// the two fixed policies exist for tests and measurement, and all three
/// produce **identical trajectories** for a fixed seed (the sampler is a
/// pure function of the draw and the true weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// The fixed policies are only pinned from tests; production construction
// is always `Adaptive`.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum DeferralPolicy {
    /// Measure the flush-time cancel rate and switch modes accordingly.
    Adaptive,
    /// Always defer through the sidecar (the PR 5 behavior).
    AlwaysDefer,
    /// Always apply point-updates immediately (the pre-PR 5 behavior).
    AlwaysBypass,
}

/// One pending (deferred) weight entry: the edge, its exact current
/// weight, the stale value still in the tree (captured at insertion, so
/// flush-time cancellation is a plain compare), and the flush generation
/// that last touched it (tracked-mode entries persist across flushes;
/// the generation tells a flush which untouched entries to skip in its
/// cancel accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    edge: u32,
    gen: u32,
    w: u64,
    w_tree: u64,
}

/// Outcome of one sparse advancement attempt against a horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseStep {
    /// The next effective event lands beyond the horizon: the first `max`
    /// scheduled interactions are conditionally all no-ops (truncated
    /// geometric — still exact). The caller charges the full horizon.
    Horizon,
    /// An effective event: `consumed` scheduled interactions (the geometric
    /// no-op run plus the event itself) and the event's edge, drawn from
    /// the exact conditional law (∝ current active-orientation weight).
    Event {
        /// Scheduled interactions consumed (skipped no-ops + 1).
        consumed: u64,
        /// The effective edge index.
        edge: usize,
    },
}

/// The shared sparse-phase engine: a Fenwick tree over per-edge
/// active-orientation weights with deferred, coalesced, adaptively
/// bypassed updates. See the module docs for the machinery and its
/// exactness argument.
#[derive(Debug, Clone)]
pub(crate) struct SparseSkipper {
    /// Fenwick tree over edge weights; **stale** on pending edges.
    fenwick: FenwickSampler,
    /// Exact total active weight `W`, maintained incrementally.
    w_true: u64,
    /// Pending sidecar, **sorted by edge**. Untracked mode: edges whose
    /// true weight the tree does not reflect. Tracked mode: every edge of
    /// nonzero true weight (the coverage invariant), clean or not,
    /// persisting across flushes.
    pending: Vec<Pending>,
    /// Edge → sidecar slot (`u32::MAX` = not in the sidecar).
    pending_idx: Vec<u32>,
    /// Whether the sidecar covers the whole active set (see [`TRACK_MAX`]):
    /// draws resolve by prefix scan and the delta scratch is never needed
    /// while the sidecar stays short.
    tracked: bool,
    /// Flush generation, for tracked-mode cancel accounting.
    flush_gen: u32,
    /// Scratch for the corrected descent: sorted `(edge, cumulative
    /// delta)` over the sidecar's divergent entries (`w != w_tree`),
    /// rebuilt lazily — one linear pass over the already-sorted sidecar,
    /// no sort — when a draw needs it and the sidecar changed since.
    deltas: Vec<(u32, i64)>,
    /// Whether `deltas` is out of date with the sidecar.
    delta_dirty: bool,
    /// Effective events since the last flush.
    events_since_flush: u32,
    /// Total scheduled orientations `2m` (the skip denominator).
    two_m: u64,
    /// `W` value the cached inversion constant corresponds to
    /// (`u64::MAX` = none cached).
    cached_w: u64,
    /// Cached `ln(1 − W/2m)` for the geometric inversion.
    cached_ln_q: f64,
    /// Deferral policy (adaptive by default; fixed modes for tests).
    policy: DeferralPolicy,
    /// Whether deferral is currently bypassed (immediate point-updates).
    bypass: bool,
    /// Events left before a bypass phase re-probes deferral.
    probe_events: u64,
    /// Flushes observed in the current adaptive measurement window.
    window_flushes: u32,
    /// Window sidecar entries applied to the tree.
    win_applied: u64,
    /// Window sidecar entries cancelled (coalesced away).
    win_cancelled: u64,
    /// Telemetry counters, harvested via [`SparseSkipper::take_stats`].
    stats: SparseStats,
    /// Per-event histograms (skip lengths, block totals, flush sizes),
    /// recorded only when the owning engine enabled them — `None` costs
    /// one branch per harvest site.
    hist: Option<Box<EventHistograms>>,
    /// No-ops skipped in the current histogram block (hist enabled only).
    block_noops: u64,
    /// Events in the current histogram block (hist enabled only).
    block_events: u32,
}

impl SparseSkipper {
    /// Build from a scan of the current per-edge active-orientation
    /// weights (entering the sparse phase). When the active set is small
    /// enough it is seeded into the sidecar whole — tracked mode — so the
    /// frontier regime samples by prefix scan from the first event.
    pub(crate) fn new(weights: &[u64]) -> Self {
        let fenwick = FenwickSampler::new(weights);
        let w_true = fenwick.total();
        let mut pending = Vec::new();
        let mut pending_idx = vec![u32::MAX; weights.len()];
        let active = weights.iter().filter(|&&w| w > 0).count();
        let tracked = active <= TRACK_MAX;
        if tracked {
            for (e, &w) in weights.iter().enumerate() {
                if w > 0 {
                    pending_idx[e] = pending.len() as u32;
                    pending.push(Pending {
                        edge: e as u32,
                        gen: u32::MAX,
                        w,
                        w_tree: w,
                    });
                }
            }
        }
        SparseSkipper {
            fenwick,
            w_true,
            pending,
            pending_idx,
            tracked,
            flush_gen: 0,
            deltas: Vec::new(),
            delta_dirty: false,
            events_since_flush: 0,
            two_m: 2 * weights.len() as u64,
            cached_w: u64::MAX,
            cached_ln_q: 0.0,
            policy: DeferralPolicy::Adaptive,
            bypass: false,
            probe_events: 0,
            window_flushes: 0,
            win_applied: 0,
            win_cancelled: 0,
            stats: SparseStats::new(),
            hist: None,
            block_noops: 0,
            block_events: 0,
        }
    }

    /// Enable or disable per-event histogram recording (fresh histograms
    /// on enable, dropped on disable). The owning engine mirrors its own
    /// histogram flag onto every skipper it creates.
    pub(crate) fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        self.block_noops = 0;
        self.block_events = 0;
    }

    /// The histograms recorded since [`SparseSkipper::set_histograms`]
    /// enabled them (`None` when recording is off). The owning engine
    /// merges these into its own at phase exits and boundary reads.
    pub(crate) fn histograms(&self) -> Option<&EventHistograms> {
        self.hist.as_deref()
    }

    /// Exact total active weight `W` (0 iff silent). O(1).
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.w_true
    }

    /// Exact current weight of edge `e` (sidecar if pending, tree
    /// otherwise).
    #[inline]
    pub(crate) fn weight(&self, e: usize) -> u64 {
        let slot = self.pending_idx[e];
        if slot == u32::MAX {
            self.fenwick.weight(e)
        } else {
            self.pending[slot as usize].w
        }
    }

    /// Whether activity has recovered past the hysteresis threshold and
    /// the engine should drop the tree and re-enter its dense phase.
    #[inline]
    pub(crate) fn should_exit_to_dense(&self) -> bool {
        self.w_true * DENSE_ENTER_INV >= self.two_m
    }

    /// Zero-and-return the accumulated telemetry counters. The owning
    /// engine calls this at every advancement boundary (and before
    /// dropping the skipper on a sparse → dense exit) and absorbs the
    /// batch into its [`EngineTelemetry`](crate::telemetry::EngineTelemetry).
    #[inline]
    pub(crate) fn take_stats(&mut self) -> SparseStats {
        std::mem::take(&mut self.stats)
    }

    /// Pin the deferral policy (tests and measurement; the default is
    /// [`DeferralPolicy::Adaptive`]). Switching to a fixed mode flushes
    /// any pending entries first so the mode invariant (bypass ⇒ empty
    /// sidecar) holds.
    #[cfg(test)]
    pub(crate) fn set_policy(&mut self, policy: DeferralPolicy) {
        self.policy = policy;
        match policy {
            DeferralPolicy::AlwaysBypass => {
                self.flush();
                self.drop_sidecar();
                self.bypass = true;
            }
            DeferralPolicy::AlwaysDefer => {
                self.bypass = false;
            }
            DeferralPolicy::Adaptive => {}
        }
    }

    /// Record edge `e`'s new true weight. In deferral mode the tree is not
    /// touched: the weight is parked in the sidecar (no-op when unchanged;
    /// an edge whose weight returns to its tree entry stays harmlessly
    /// pending until the next flush while the sidecar is small, and is
    /// evicted eagerly once it grows past [`EVICT_ABOVE`] — either way no
    /// false negatives, possible false positives, the dense leaper's
    /// dirty-bitmap convention). In bypass mode the point-update is
    /// applied immediately.
    #[inline]
    pub(crate) fn set_weight(&mut self, e: usize, new_w: u64) {
        if self.bypass {
            let old = self.fenwick.weight(e);
            if old == new_w {
                return;
            }
            self.w_true = self.w_true - old + new_w;
            self.fenwick.set(e, new_w);
            self.stats.updates_immediate += 1;
            return;
        }
        let slot = self.pending_idx[e];
        if slot != u32::MAX {
            let entry = self.pending[slot as usize];
            if entry.w == new_w {
                return;
            }
            self.w_true = self.w_true - entry.w + new_w;
            self.stats.updates_deferred += 1;
            self.delta_dirty = true;
            if !self.tracked && self.pending.len() > EVICT_ABOVE && entry.w_tree == new_w {
                // The weight toggled back to the tree's value (frontier
                // edges do this constantly): once an untracked sidecar is
                // big enough that its delta rebuilds cost more than the
                // eviction bookkeeping, drop the entry so it holds only
                // truly-divergent edges. Below the bound keeping the
                // entry is cheaper than the removal; a tracked sidecar
                // never evicts (coverage invariant).
                self.stats.entries_cancelled += 1;
                self.win_cancelled += 1;
                self.remove_slot(slot as usize);
                return;
            }
            let entry = &mut self.pending[slot as usize];
            entry.w = new_w;
            entry.gen = self.flush_gen;
        } else {
            let old = self.fenwick.weight(e);
            if old == new_w {
                return;
            }
            self.insert_sorted(Pending {
                edge: e as u32,
                gen: self.flush_gen,
                w: new_w,
                w_tree: old,
            });
            self.w_true = self.w_true - old + new_w;
            self.stats.updates_deferred += 1;
            self.delta_dirty = true;
        }
    }

    /// Insert a sidecar entry at its edge-sorted position, shifting the
    /// slot map for the displaced tail. O(p) memmove — new edges are the
    /// rare case (a frontier mostly rewrites entries in place).
    fn insert_sorted(&mut self, entry: Pending) {
        let i = self.pending.partition_point(|p| p.edge < entry.edge);
        self.pending.insert(i, entry);
        for p in &self.pending[i..] {
            self.pending_idx[p.edge as usize] = self.pending_idx[p.edge as usize].wrapping_add(1);
        }
        self.pending_idx[entry.edge as usize] = i as u32;
    }

    /// Remove the sidecar entry at `slot`, shifting the slot map for the
    /// tail. Untracked eviction only.
    fn remove_slot(&mut self, slot: usize) {
        let edge = self.pending[slot].edge;
        self.pending.remove(slot);
        self.pending_idx[edge as usize] = u32::MAX;
        for p in &self.pending[slot..] {
            self.pending_idx[p.edge as usize] -= 1;
        }
    }

    /// Apply the sidecar's divergent entries to the tree in one batched
    /// pass, counting an entry *cancelled* when its weight returned to the
    /// stored tree value (untracked) or when it was touched this block but
    /// ended where the tree already has it (tracked). Untracked mode then
    /// clears the sidecar; tracked mode keeps the still-active entries —
    /// now all clean — and drops only the dead (zero-weight) ones, so the
    /// coverage invariant survives the flush. Feeds the adaptive
    /// cancel-rate window.
    pub(crate) fn flush(&mut self) {
        self.events_since_flush = 0;
        if self.pending.is_empty() {
            return;
        }
        let occupancy = self.pending.len() as u64;
        let applied_before = self.stats.entries_applied;
        self.stats.flushes += 1;
        self.window_flushes += 1;
        if self.tracked {
            let mut kept = 0usize;
            for i in 0..self.pending.len() {
                let Pending {
                    edge,
                    gen,
                    w,
                    w_tree,
                } = self.pending[i];
                if w != w_tree {
                    self.fenwick.set(edge as usize, w);
                    self.stats.entries_applied += 1;
                    self.win_applied += 1;
                } else if gen == self.flush_gen {
                    self.stats.entries_cancelled += 1;
                    self.win_cancelled += 1;
                }
                if w > 0 {
                    // Compact in place; the slot map is rebuilt below.
                    self.pending[kept] = Pending {
                        edge,
                        gen,
                        w,
                        w_tree: w,
                    };
                    kept += 1;
                } else {
                    self.pending_idx[edge as usize] = u32::MAX;
                }
            }
            self.pending.truncate(kept);
            for (i, p) in self.pending.iter().enumerate() {
                self.pending_idx[p.edge as usize] = i as u32;
            }
            self.flush_gen = self.flush_gen.wrapping_add(1);
            if self.pending.len() > TRACK_DROP {
                // The active set outgrew the sidecar: the tree is fully
                // materialized as of this flush, so hand over to it.
                self.drop_sidecar();
            }
        } else {
            for i in 0..self.pending.len() {
                let Pending {
                    edge, w, w_tree, ..
                } = self.pending[i];
                self.pending_idx[edge as usize] = u32::MAX;
                if w != w_tree {
                    self.fenwick.set(edge as usize, w);
                    self.stats.entries_applied += 1;
                    self.win_applied += 1;
                } else {
                    self.stats.entries_cancelled += 1;
                    self.win_cancelled += 1;
                }
            }
            self.pending.clear();
        }
        self.deltas.clear();
        self.delta_dirty = false;
        debug_assert_eq!(self.fenwick.total(), self.w_true, "flush lost weight");
        if let Some(h) = &mut self.hist {
            h.flush_occupancy.add_u64(occupancy);
            h.flush_size
                .add_u64(self.stats.entries_applied - applied_before);
        }
        self.maybe_enter_bypass();
    }

    /// Abandon the sidecar after a flush has materialized every entry into
    /// the tree (tracked → untracked demotion, and bypass entry). The
    /// entries are all clean at this point, so clearing loses nothing.
    fn drop_sidecar(&mut self) {
        debug_assert!(self.pending.iter().all(|p| p.w == p.w_tree));
        for p in &self.pending {
            self.pending_idx[p.edge as usize] = u32::MAX;
        }
        self.pending.clear();
        self.deltas.clear();
        self.delta_dirty = false;
        self.tracked = false;
    }

    /// Adaptive decision point, evaluated at flush boundaries: once a full
    /// measurement window has elapsed — [`ADAPT_WINDOW`] flushes, or
    /// earlier once [`RESOLVED_WINDOW`] sidecar entries have been resolved
    /// (low-cancel workloads fill their sidecars fast, and the sooner the
    /// estimate is trusted the shorter the expensive probe) — bypass
    /// deferral when the measured cancel rate says coalescing cannot pay.
    #[inline]
    fn maybe_enter_bypass(&mut self) {
        if self.policy != DeferralPolicy::Adaptive {
            return;
        }
        let resolved = self.win_applied + self.win_cancelled;
        if self.window_flushes < ADAPT_WINDOW && resolved < RESOLVED_WINDOW {
            return;
        }
        let cancelled = self.win_cancelled;
        self.window_flushes = 0;
        self.win_applied = 0;
        self.win_cancelled = 0;
        if resolved > 0 && (cancelled as f64) < BYPASS_CANCEL_MIN * resolved as f64 {
            // The flush that called us materialized every divergent entry,
            // so the sidecar (tracked mode keeps its clean entries) can be
            // dropped wholesale.
            self.drop_sidecar();
            self.bypass = true;
            self.probe_events = BYPASS_PROBE_EVENTS;
            self.stats.bypass_enters += 1;
        }
    }

    /// End-of-event bookkeeping: count the event, flush when the block is
    /// full or the sidecar has outgrown its bound, and run the bypass
    /// probe countdown. (Staleness between flushes is free: the corrected
    /// descent never rejects, so no stale-mass flush trigger is needed.)
    #[inline]
    pub(crate) fn end_event(&mut self) {
        self.stats.events += 1;
        if self.bypass {
            if self.policy == DeferralPolicy::Adaptive {
                self.probe_events = self.probe_events.saturating_sub(1);
                if self.probe_events == 0 {
                    self.bypass = false;
                    self.stats.bypass_exits += 1;
                }
            }
            return;
        }
        self.events_since_flush += 1;
        if self.events_since_flush >= FLUSH_EVENTS || self.pending.len() >= PENDING_MAX {
            self.flush();
        }
    }

    /// Exact geometric no-op run length before the next effective event
    /// (`p = W/2m`), with the inversion constant cached per distinct `W` —
    /// across a block whose events leave `W` unchanged this makes the
    /// aggregate skip one negative-binomial-style total (see the module
    /// docs). Precondition: `W > 0`.
    #[inline]
    fn skip_len(&mut self, rng: &mut SimRng) -> u64 {
        debug_assert!(self.w_true > 0, "skip from a silent configuration");
        if self.w_true >= self.two_m {
            return 0; // every orientation active: p = 1
        }
        if self.cached_w != self.w_true {
            let p = self.w_true as f64 / self.two_m as f64;
            self.cached_ln_q = (-p).ln_1p();
            self.cached_w = self.w_true;
            self.stats.log_cache_misses += 1;
        } else {
            self.stats.log_cache_hits += 1;
        }
        self.stats.skip_draws += 1;
        let u = loop {
            let u = rng.f64();
            if u > 0.0 {
                break u;
            }
        };
        let g = (u.ln() / self.cached_ln_q).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Sample an edge with probability proportional to its **true** weight
    /// from a single uniform draw below `W` — always the exact
    /// prefix-order selection a fully-materialized tree would make for
    /// the same draw, whatever mode the skipper is in, which is what
    /// keeps trajectories identical across deferral policies and sidecar
    /// modes. Short tracked sidecars (the frontier regime) resolve by a
    /// plain prefix scan; everything else by the corrected Fenwick
    /// descent (see the module docs). Precondition: `W > 0`.
    #[inline]
    fn sample_edge(&mut self, rng: &mut SimRng) -> usize {
        debug_assert!(self.w_true > 0, "sampling from a silent configuration");
        self.stats.event_draws += 1;
        let mut u = rng.below(self.w_true);
        if self.tracked && self.pending.len() <= SCAN_MAX {
            // Coverage invariant: all of `W` lives in the (edge-sorted)
            // sidecar, so the prefix scan IS the tree's prefix order.
            for p in &self.pending {
                if u < p.w {
                    return p.edge as usize;
                }
                u -= p.w;
            }
            unreachable!("tracked sidecar lost active mass");
        }
        if self.pending.is_empty() {
            return self.fenwick.find(u);
        }
        if self.delta_dirty {
            // One linear pass over the already-sorted sidecar — divergent
            // entries only, no sort.
            self.deltas.clear();
            let mut acc = 0i64;
            for p in &self.pending {
                let d = p.w as i64 - p.w_tree as i64;
                if d != 0 {
                    acc += d;
                    self.deltas.push((p.edge, acc));
                }
            }
            self.delta_dirty = false;
        }
        let ds = &self.deltas;
        if ds.is_empty() {
            return self.fenwick.find(u);
        }
        // Most descent queries fall outside the (tight, frontier-local)
        // delta range: answer those in O(1) and binary-search the rest.
        let lo = ds[0].0 as usize;
        let (hi, full) = {
            let last = ds[ds.len() - 1];
            (last.0 as usize, last.1)
        };
        self.fenwick.find_adjusted(u, |x| {
            if x <= lo {
                0
            } else if x > hi {
                full
            } else {
                match ds.partition_point(|&(e, _)| (e as usize) < x) {
                    0 => 0,
                    i => ds[i - 1].1,
                }
            }
        })
    }

    /// One sparse advancement against a horizon of `max` scheduled
    /// interactions: geometrically skip the no-op run and either hand back
    /// the effective edge (drawn from the exact conditional law) or report
    /// that the event lands beyond the horizon. The caller applies the
    /// transition, reports weight changes via [`SparseSkipper::set_weight`],
    /// and closes the event with [`SparseSkipper::end_event`].
    /// Precondition: `W > 0`, `max > 0`.
    #[inline]
    pub(crate) fn next_event(&mut self, rng: &mut SimRng, max: u64) -> SparseStep {
        debug_assert!(max > 0);
        let skipped = self.skip_len(rng);
        if let Some(h) = &mut self.hist {
            // Every geometric draw is a genuine Geom(W/2m) sample, horizon
            // truncation included (memorylessness makes the redraw exact).
            h.skip_len.add_u64(skipped);
        }
        if skipped >= max {
            return SparseStep::Horizon;
        }
        if let Some(h) = self.hist.as_mut() {
            // Per-block scheduled no-op totals: the sum of FLUSH_EVENTS
            // consecutive skip runs — negative-binomial at constant W.
            self.block_noops += skipped;
            self.block_events += 1;
            if self.block_events >= FLUSH_EVENTS {
                h.block_total.add_u64(self.block_noops);
                self.block_noops = 0;
                self.block_events = 0;
            }
        }
        SparseStep::Event {
            consumed: skipped + 1,
            edge: self.sample_edge(rng),
        }
    }

    /// Verify the skipper against ground-truth per-edge weights: every
    /// edge's tracked weight, the incremental total, the sidecar's stored
    /// tree values, and (for clean edges) the tree entries must all be
    /// consistent. O(m); used by the property tests.
    pub(crate) fn check_consistent(&self, truth: &[u64]) -> Result<(), String> {
        if truth.len() != self.fenwick.len() {
            return Err(format!(
                "edge count mismatch: {} vs {}",
                truth.len(),
                self.fenwick.len()
            ));
        }
        if self.bypass && !self.pending.is_empty() {
            return Err(format!(
                "bypass mode with {} pending entries",
                self.pending.len()
            ));
        }
        let mut total = 0u64;
        for (e, &w) in truth.iter().enumerate() {
            total += w;
            if self.weight(e) != w {
                return Err(format!(
                    "edge {e}: tracked weight {} != true weight {w}",
                    self.weight(e)
                ));
            }
            let slot = self.pending_idx[e];
            if slot == u32::MAX {
                if self.fenwick.weight(e) != w {
                    return Err(format!(
                        "clean edge {e}: stale tree entry {} != true weight {w}",
                        self.fenwick.weight(e)
                    ));
                }
            } else {
                let p = self.pending[slot as usize];
                if p.edge as usize != e {
                    return Err(format!("sidecar slot {slot} does not point back at {e}"));
                }
                if p.w_tree != self.fenwick.weight(e) {
                    return Err(format!(
                        "sidecar edge {e}: stored tree value {} != tree entry {}",
                        p.w_tree,
                        self.fenwick.weight(e)
                    ));
                }
            }
        }
        if total != self.w_true {
            return Err(format!(
                "incremental total {} != Σ true {total}",
                self.w_true
            ));
        }
        // The sidecar is sorted by edge in both modes.
        for pair in self.pending.windows(2) {
            if pair[0].edge >= pair[1].edge {
                return Err(format!(
                    "sidecar out of edge order: {} then {}",
                    pair[0].edge, pair[1].edge
                ));
            }
        }
        // Tracked coverage invariant: every edge with nonzero true weight
        // is in the sidecar.
        if self.tracked {
            for (e, &w) in truth.iter().enumerate() {
                if w > 0 && self.pending_idx[e] == u32::MAX {
                    return Err(format!("tracked mode lost active edge {e} (weight {w})"));
                }
            }
        }
        // The descent scratch, when current: sorted, divergent entries
        // only, and each cumulative step must equal the edge's true − tree
        // gap.
        if !self.delta_dirty {
            let mut prev_cum = 0i64;
            for (i, &(e, cum)) in self.deltas.iter().enumerate() {
                if i > 0 && self.deltas[i - 1].0 >= e {
                    return Err(format!("delta scratch out of order at slot {i}"));
                }
                let individual = cum - prev_cum;
                prev_cum = cum;
                let expected = truth[e as usize] as i64 - self.fenwick.weight(e as usize) as i64;
                if individual != expected {
                    return Err(format!(
                        "delta for edge {e}: {individual} != true − tree {expected}"
                    ));
                }
            }
            for p in &self.pending {
                if p.w != p.w_tree && self.deltas.binary_search_by_key(&p.edge, |d| d.0).is_err() {
                    return Err(format!("divergent edge {} missing from deltas", p.edge));
                }
            }
        }
        Ok(())
    }

    /// Serialize the full skipper state into a checkpoint body: mode and
    /// hysteresis scalars, the adaptive-deferral window, telemetry,
    /// histograms, and the pending sidecar (with each entry's stale tree
    /// value, so the restored tree can be rebuilt stale exactly where the
    /// original was). The Fenwick tree itself and the descent scratch are
    /// *not* serialized — both are deterministic functions of the true
    /// weights and the sidecar, and [`SparseSkipper::read_snapshot`]
    /// reconstructs them.
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.tracked);
        w.put_u32(self.flush_gen);
        w.put_u32(self.events_since_flush);
        w.put_u64(self.cached_w);
        w.put_f64(self.cached_ln_q);
        w.put_bool(self.bypass);
        w.put_u64(self.probe_events);
        w.put_u32(self.window_flushes);
        w.put_u64(self.win_applied);
        w.put_u64(self.win_cancelled);
        w.put_u64(self.block_noops);
        w.put_u32(self.block_events);
        self.stats.write_counters(w);
        w.put_u64(self.pending.len() as u64);
        for p in &self.pending {
            w.put_u32(p.edge);
            w.put_u32(p.gen);
            w.put_u64(p.w);
            w.put_u64(p.w_tree);
        }
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
    }

    /// Rebuild a skipper from a snapshot plus the ground-truth per-edge
    /// active-orientation weights (recomputed by the owning engine from
    /// its restored states). The Fenwick tree is rebuilt with each pending
    /// edge held at its recorded stale value, the descent scratch is left
    /// dirty (its lazy rebuild is deterministic), and the result is
    /// validated against `truth` with [`SparseSkipper::check_consistent`]
    /// — a corrupt sidecar becomes a clean error, never a wrong
    /// trajectory. The deferral policy restores to `Adaptive` (the only
    /// production value).
    pub(crate) fn read_snapshot(
        truth: &[u64],
        r: &mut SnapshotReader<'_>,
    ) -> Result<SparseSkipper, CheckpointError> {
        let tracked = r.get_bool()?;
        let flush_gen = r.get_u32()?;
        let events_since_flush = r.get_u32()?;
        let cached_w = r.get_u64()?;
        let cached_ln_q = r.get_f64()?;
        let bypass = r.get_bool()?;
        let probe_events = r.get_u64()?;
        let window_flushes = r.get_u32()?;
        let win_applied = r.get_u64()?;
        let win_cancelled = r.get_u64()?;
        let block_noops = r.get_u64()?;
        let block_events = r.get_u32()?;
        let stats = SparseStats::read_counters(r)?;
        let count = r.get_u64()? as usize;
        let mut pending = Vec::new();
        let mut pending_idx = vec![u32::MAX; truth.len()];
        let mut tree_weights = truth.to_vec();
        for i in 0..count {
            let edge = r.get_u32()?;
            let gen = r.get_u32()?;
            let w = r.get_u64()?;
            let w_tree = r.get_u64()?;
            if (edge as usize) >= truth.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "sidecar edge {edge} out of range ({} edges)",
                    truth.len()
                )));
            }
            if pending_idx[edge as usize] != u32::MAX {
                return Err(CheckpointError::Corrupt(format!(
                    "sidecar edge {edge} appears twice"
                )));
            }
            pending_idx[edge as usize] = i as u32;
            tree_weights[edge as usize] = w_tree;
            pending.push(Pending {
                edge,
                gen,
                w,
                w_tree,
            });
        }
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        let fenwick = FenwickSampler::new(&tree_weights);
        let out = SparseSkipper {
            fenwick,
            w_true: truth.iter().sum(),
            pending,
            pending_idx,
            tracked,
            flush_gen,
            deltas: Vec::new(),
            delta_dirty: true,
            events_since_flush,
            two_m: 2 * truth.len() as u64,
            cached_w,
            cached_ln_q,
            policy: DeferralPolicy::Adaptive,
            bypass,
            probe_events,
            window_flushes,
            win_applied,
            win_cancelled,
            stats,
            hist,
            block_noops,
            block_events,
        };
        out.check_consistent(truth)
            .map_err(CheckpointError::Corrupt)?;
        Ok(out)
    }
}

/// Orient an effective event on edge `(a, b)`: when both orientations are
/// active pick one uniformly, otherwise take the single active one.
/// `a_active` / `b_active` report whether `(a → b)` / `(b → a)` change the
/// configuration; at least one must hold.
#[inline]
pub(crate) fn orient_event(
    rng: &mut SimRng,
    a: usize,
    b: usize,
    a_active: bool,
    b_active: bool,
) -> (usize, usize) {
    debug_assert!(a_active || b_active, "orienting an inactive edge");
    if a_active && b_active {
        if rng.bernoulli(0.5) {
            (a, b)
        } else {
            (b, a)
        }
    } else if a_active {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_stats::histogram::LogHistogram;
    use sim_stats::ks::{ks_critical_value, ks_statistic};

    /// Two-sample KS statistic over identically-binned histograms: the
    /// max CDF gap evaluated at the bin boundaries. A lower bound on the
    /// unbinned statistic, so rejecting against the standard critical
    /// value keeps the nominal α (the test only loses power, never size).
    fn binned_ks(a: &LogHistogram, b: &LogHistogram) -> f64 {
        assert_eq!(a.counts().len(), b.counts().len());
        let (na, nb) = (a.total() as f64, b.total() as f64);
        let mut ca = a.non_positive() as f64;
        let mut cb = b.non_positive() as f64;
        let mut d = (ca / na - cb / nb).abs();
        for (&x, &y) in a.counts().iter().zip(b.counts()) {
            ca += x as f64;
            cb += y as f64;
            d = d.max((ca / na - cb / nb).abs());
        }
        d
    }

    /// A weight vector with the sparse-phase shape: mostly zeros, a few
    /// active edges of weight 1 or 2.
    fn sparse_weights(m: usize, active: &[(usize, u64)]) -> Vec<u64> {
        let mut w = vec![0u64; m];
        for &(e, v) in active {
            w[e] = v;
        }
        w
    }

    #[test]
    fn skipper_tracks_totals_and_weights() {
        let w = sparse_weights(16, &[(3, 2), (7, 1), (12, 2)]);
        let mut s = SparseSkipper::new(&w);
        assert_eq!(s.total(), 5);
        assert_eq!(s.weight(3), 2);
        assert_eq!(s.weight(0), 0);
        s.set_weight(3, 0);
        s.set_weight(0, 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.weight(3), 0);
        assert_eq!(s.weight(0), 1);
        // The tree has not been flushed: entries are stale but tracked
        // weights are exact.
        let truth = sparse_weights(16, &[(0, 1), (7, 1), (12, 2)]);
        s.check_consistent(&truth).unwrap();
        s.flush();
        s.check_consistent(&truth).unwrap();
        // Telemetry saw the two deferred updates and the flush.
        let stats = s.take_stats();
        assert_eq!(stats.updates_deferred, 2);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.entries_applied, 2);
        assert_eq!(stats.entries_cancelled, 0);
        // take_stats zeroes.
        assert_eq!(s.take_stats(), SparseStats::new());
    }

    /// Satellite property test: a block's aggregated skip total must match
    /// the sum of per-event geometric draws distributionally. The
    /// reference is [`SimRng::negative_binomial`] — by construction the
    /// sum of `r` independent geometric inversions — compared by
    /// two-sample KS at α = 0.01.
    #[test]
    fn block_skip_totals_match_negative_binomial_ks() {
        let m = 64usize;
        let active: Vec<(usize, u64)> = vec![(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)];
        let w = sparse_weights(m, &active);
        let p = 8.0 / (2 * m) as f64; // W = 8, 2m = 128
        let blocks = 400usize;
        let r = 16u64;

        let mut s = SparseSkipper::new(&w);
        let mut rng = SimRng::new(1234);
        let engine: Vec<f64> = (0..blocks)
            .map(|_| {
                let mut total = 0u64;
                for _ in 0..r {
                    match s.next_event(&mut rng, u64::MAX / 2) {
                        SparseStep::Event { consumed, .. } => total += consumed - 1,
                        SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
                    }
                    // Weights never change: the whole block runs at one W,
                    // the regime where the aggregate is negative binomial.
                    s.end_event();
                }
                total as f64
            })
            .collect();

        let mut ref_rng = SimRng::new(98_765);
        let reference: Vec<f64> = (0..blocks)
            .map(|_| ref_rng.negative_binomial(r, p) as f64)
            .collect();

        let d = ks_statistic(&engine, &reference);
        let crit = ks_critical_value(engine.len(), reference.len(), 0.01);
        assert!(
            d < crit,
            "block skip totals vs NB({r}, {p}): KS {d:.4} >= critical {crit:.4}"
        );
        // Constant W across the whole run: the inversion constant was
        // computed once and reused for every remaining draw.
        let stats = s.take_stats();
        assert_eq!(stats.log_cache_misses, 1);
        assert_eq!(stats.skip_draws, stats.log_cache_hits + 1);
    }

    /// Satellite property test: after every batched block apply (flush) the
    /// Fenwick weights must be consistent with a from-scratch rebuild —
    /// and tracked weights must stay exact even between flushes. Pinned to
    /// [`DeferralPolicy::AlwaysDefer`] so the adaptive bypass cannot
    /// starve the flush path this test exists to exercise.
    #[test]
    fn fenwick_matches_rebuild_after_every_flush() {
        let m = 48usize;
        let mut truth = sparse_weights(m, &[(1, 1), (9, 2), (20, 1), (33, 2), (40, 1)]);
        let mut s = SparseSkipper::new(&truth);
        s.set_policy(DeferralPolicy::AlwaysDefer);
        let mut rng = SimRng::new(77);
        let mut flushes = 0u32;
        for step in 0..4_000u64 {
            // Mutate a few random edges (an event's incident re-weighting).
            for _ in 0..3 {
                let e = rng.index(m);
                let nw = rng.below(3);
                s.set_weight(e, nw);
                truth[e] = nw;
            }
            s.check_consistent(&truth).unwrap_or_else(|msg| {
                panic!("step {step} (pre-event): {msg}");
            });
            if s.total() > 0 {
                // Exercise the corrected-descent sampling path against the
                // truth.
                match s.next_event(&mut rng, u64::MAX / 2) {
                    SparseStep::Event { edge, .. } => {
                        assert!(truth[edge] > 0, "sampled zero-weight edge {edge}");
                    }
                    SparseStep::Horizon => unreachable!(),
                }
            }
            let flushes_before = s.stats.flushes;
            s.end_event();
            if s.stats.flushes > flushes_before {
                flushes += 1;
                // Flushed: the tree must equal a from-scratch rebuild.
                let rebuilt = FenwickSampler::new(&truth);
                assert_eq!(s.fenwick.weights(), rebuilt.weights(), "step {step}");
                assert_eq!(s.fenwick.total(), rebuilt.total(), "step {step}");
            }
        }
        assert!(flushes > 10, "only {flushes} flushes exercised");
    }

    /// The corrected-descent sampler must reproduce the exact weighted law
    /// while the tree is stale.
    #[test]
    fn stale_tree_sampling_matches_true_weights() {
        let m = 32usize;
        let w = sparse_weights(m, &[(2, 2), (10, 1), (21, 2)]);
        let mut s = SparseSkipper::new(&w);
        // Make the tree stale: move weight around without flushing.
        s.set_weight(2, 0);
        s.set_weight(4, 2);
        s.set_weight(10, 2);
        // True weights now: e4 = 2, e10 = 2, e21 = 2 (tree still has the
        // originals).
        let mut rng = SimRng::new(5);
        let mut counts = std::collections::HashMap::new();
        let n = 60_000;
        for _ in 0..n {
            *counts.entry(s.sample_edge(&mut rng)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 3, "sampled edges {counts:?}");
        for e in [4usize, 10, 21] {
            let c = counts[&e] as f64 / n as f64;
            assert!(
                (c - 1.0 / 3.0).abs() < 0.01,
                "edge {e} frequency {c} (expected 1/3)"
            );
        }
    }

    /// Regression pin for the adaptive deferral (satellite): all three
    /// deferral policies must produce *identical* trajectories — the same
    /// skip lengths, the same edges, the same RNG consumption, the same
    /// final weights — for a fixed seed. This is what makes the adaptive
    /// bypass a pure performance decision.
    #[test]
    fn deferral_policies_produce_identical_trajectories() {
        let m = 64usize;
        let init = sparse_weights(m, &[(3, 1), (17, 2), (30, 1), (51, 2)]);
        let run = |policy: DeferralPolicy| -> (Vec<(u64, usize)>, Vec<u64>) {
            let mut s = SparseSkipper::new(&init);
            s.set_policy(policy);
            let mut truth = init.clone();
            let mut rng = SimRng::new(4242);
            let mut events = Vec::new();
            for _ in 0..3_000 {
                let (consumed, edge) = match s.next_event(&mut rng, u64::MAX / 2) {
                    SparseStep::Event { consumed, edge } => (consumed, edge),
                    SparseStep::Horizon => unreachable!(),
                };
                events.push((consumed, edge));
                // Deterministic frontier-ish dynamics: toggle the event
                // edge between weights 1 and 2 and toggle a neighbor in
                // and out of activity — plenty of cancellation for the
                // defer path, plenty of churn for the bypass path.
                truth[edge] = 3 - truth[edge]; // 1 ↔ 2
                s.set_weight(edge, truth[edge]);
                let j = (edge + 1) % m;
                truth[j] = if truth[j] == 0 { 1 } else { 0 };
                s.set_weight(j, truth[j]);
                s.end_event();
                s.check_consistent(&truth).unwrap();
            }
            // The RNG streams must line up exactly, not just the events.
            events.push((rng.below(1 << 30), 0));
            (events, truth)
        };
        let (ev_adaptive, w_adaptive) = run(DeferralPolicy::Adaptive);
        let (ev_defer, w_defer) = run(DeferralPolicy::AlwaysDefer);
        let (ev_bypass, w_bypass) = run(DeferralPolicy::AlwaysBypass);
        assert_eq!(ev_adaptive, ev_defer, "adaptive vs always-defer");
        assert_eq!(ev_adaptive, ev_bypass, "adaptive vs always-bypass");
        assert_eq!(w_adaptive, w_defer);
        assert_eq!(w_adaptive, w_bypass);
    }

    /// The adaptive policy must actually engage on a low-cancel stream
    /// (every flush applies everything) and stay out of the way on a
    /// high-cancel stream (every entry toggles back before the flush).
    #[test]
    fn adaptive_bypass_follows_the_measured_cancel_rate() {
        // Low cancel: each event moves weight to a fresh edge, so nothing
        // ever toggles back — cancel rate 0, bypass must engage and its
        // immediate updates must start counting.
        let m = 2048usize;
        let mut s = SparseSkipper::new(&sparse_weights(m, &[(0, 1)]));
        for step in 0..4_096usize {
            let e = (step + 1) % m;
            s.set_weight(e, 1 + ((step + step / m) as u64 % 2));
            s.end_event();
        }
        let stats = s.take_stats();
        assert!(stats.bypass_enters >= 1, "bypass never engaged: {stats:?}");
        assert!(stats.updates_immediate > 0);
        assert_eq!(stats.cancel_rate(), 0.0);

        // High cancel: every entry toggles back before its flush — the
        // measured rate is ~1 and deferral must stay on.
        let mut s = SparseSkipper::new(&sparse_weights(64, &[(5, 1)]));
        for _ in 0..4_096usize {
            s.set_weight(9, 2);
            s.set_weight(9, 0);
            s.end_event();
        }
        let stats = s.take_stats();
        assert_eq!(stats.bypass_enters, 0, "bypassed a coalescing regime");
        assert_eq!(stats.updates_immediate, 0);
        assert!(stats.cancel_rate() > 0.99, "rate {}", stats.cancel_rate());
    }

    /// A bypass phase re-probes deferral after its countdown.
    #[test]
    fn bypass_probes_back_into_deferral() {
        let m = 2048usize;
        let mut s = SparseSkipper::new(&sparse_weights(m, &[(0, 1)]));
        // Long low-cancel stream: enough events for enter → probe → exit
        // and a second enter (measure window ≈ [`RESOLVED_WINDOW`] events,
        // probe [`BYPASS_PROBE_EVENTS`]).
        // The value flips on every revisit of an edge, so the stream keeps
        // producing real (never-cancelling) updates across probe cycles.
        for step in 0..2 * (BYPASS_PROBE_EVENTS as usize + 2_048) {
            let e = (step + 1) % m;
            s.set_weight(e, 1 + ((step + step / m) as u64 % 2));
            s.end_event();
        }
        let stats = s.take_stats();
        assert!(stats.bypass_enters >= 2, "{stats:?}");
        assert!(stats.bypass_exits >= 1, "{stats:?}");
    }

    /// Tentpole acceptance pin: the skip-length histogram the flight
    /// recorder exposes must be distributed Geom(W/2m) at constant W —
    /// the recorded samples are compared against directly-inverted
    /// geometric draws by binned two-sample KS at α = 0.01.
    #[test]
    fn recorded_skip_lengths_match_geometric_ks() {
        let m = 64usize;
        let w = sparse_weights(m, &[(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)]);
        let p = 8.0 / (2 * m) as f64; // W = 8, 2m = 128
        let draws = 4_000usize;
        let mut s = SparseSkipper::new(&w);
        s.set_histograms(true);
        let mut rng = SimRng::new(2024);
        for _ in 0..draws {
            match s.next_event(&mut rng, u64::MAX / 2) {
                SparseStep::Event { .. } => s.end_event(),
                SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
            }
        }
        let recorded = s.histograms().expect("histograms enabled");
        assert_eq!(recorded.skip_len.total(), draws as u64);

        let mut reference = EventHistograms::new();
        let mut ref_rng = SimRng::new(55_555);
        for _ in 0..draws {
            reference.skip_len.add_u64(ref_rng.geometric(p));
        }
        let d = binned_ks(&recorded.skip_len, &reference.skip_len);
        let crit = ks_critical_value(draws, draws, 0.01);
        assert!(
            d < crit,
            "recorded skip lengths vs Geom({p}): KS {d:.4} >= critical {crit:.4}"
        );
    }

    /// Tentpole acceptance pin: the per-block no-op totals recorded into
    /// the `block_total` histogram (FLUSH_EVENTS consecutive skips at
    /// constant W) must be negative-binomial — compared against
    /// [`SimRng::negative_binomial`] by binned two-sample KS at α = 0.01.
    #[test]
    fn recorded_block_totals_match_negative_binomial_ks() {
        let m = 64usize;
        let w = sparse_weights(m, &[(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)]);
        let p = 8.0 / (2 * m) as f64;
        let blocks = 300usize;
        let mut s = SparseSkipper::new(&w);
        s.set_histograms(true);
        let mut rng = SimRng::new(31_415);
        for _ in 0..blocks * FLUSH_EVENTS as usize {
            match s.next_event(&mut rng, u64::MAX / 2) {
                SparseStep::Event { .. } => s.end_event(),
                SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
            }
        }
        let recorded = s.histograms().expect("histograms enabled");
        assert_eq!(recorded.block_total.total(), blocks as u64);

        let mut reference = EventHistograms::new();
        let mut ref_rng = SimRng::new(27_182);
        for _ in 0..blocks {
            reference
                .block_total
                .add_u64(ref_rng.negative_binomial(FLUSH_EVENTS as u64, p));
        }
        let d = binned_ks(&recorded.block_total, &reference.block_total);
        let crit = ks_critical_value(blocks, blocks, 0.01);
        assert!(
            d < crit,
            "recorded block totals vs NB({FLUSH_EVENTS}, {p}): KS {d:.4} >= critical {crit:.4}"
        );
    }

    /// Histogram recording must not perturb the trajectory: identical
    /// seeds with and without histograms produce identical event streams,
    /// and disabled recording leaves no histogram behind.
    #[test]
    fn histograms_do_not_perturb_the_trajectory() {
        let m = 64usize;
        let init = sparse_weights(m, &[(3, 1), (17, 2), (30, 1), (51, 2)]);
        let run = |record: bool| -> Vec<(u64, usize)> {
            let mut s = SparseSkipper::new(&init);
            s.set_histograms(record);
            let mut truth = init.clone();
            let mut rng = SimRng::new(777);
            let mut events = Vec::new();
            for _ in 0..2_000 {
                let (consumed, edge) = match s.next_event(&mut rng, u64::MAX / 2) {
                    SparseStep::Event { consumed, edge } => (consumed, edge),
                    SparseStep::Horizon => unreachable!(),
                };
                events.push((consumed, edge));
                truth[edge] = 3 - truth[edge];
                s.set_weight(edge, truth[edge]);
                s.end_event();
            }
            events.push((rng.below(1 << 30), 0));
            if record {
                let h = s.histograms().expect("enabled");
                assert_eq!(h.skip_len.total(), 2_000);
                assert!(h.flush_size.total() > 0, "no flush recorded");
            } else {
                assert!(s.histograms().is_none());
            }
            events
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn hysteresis_thresholds() {
        let w = sparse_weights(64, &[(0, 2)]); // 2m = 128
        let mut s = SparseSkipper::new(&w);
        assert!(!s.should_exit_to_dense()); // W = 2: 2·32 < 128
        s.set_weight(1, 2);
        assert!(s.should_exit_to_dense()); // W = 4: 4·32 ≥ 128
    }

    #[test]
    fn orientation_respects_active_sides() {
        let mut rng = SimRng::new(9);
        assert_eq!(orient_event(&mut rng, 1, 2, true, false), (1, 2));
        assert_eq!(orient_event(&mut rng, 1, 2, false, true), (2, 1));
        let mut a_first = 0;
        for _ in 0..1000 {
            if orient_event(&mut rng, 1, 2, true, true) == (1, 2) {
                a_first += 1;
            }
        }
        assert!((350..=650).contains(&a_first), "two-sided split {a_first}");
    }

    #[test]
    fn saturated_weight_skips_nothing() {
        // Every orientation active: p = 1, no no-ops to skip.
        let w = vec![2u64; 8];
        let mut s = SparseSkipper::new(&w);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            match s.next_event(&mut rng, 10) {
                SparseStep::Event { consumed, .. } => assert_eq!(consumed, 1),
                SparseStep::Horizon => panic!("horizon at p = 1"),
            }
        }
    }
}
