//! Telemetry ≡ observation ≡ engine-counter identities.
//!
//! The telemetry subsystem (`pop_proto::telemetry`) double-books what the
//! engines already count, so these tests pin the identities that make a
//! run report trustworthy:
//!
//! * **clock identity** (exact, every backend): `telemetry.scheduled`
//!   equals the engine's `interactions()` equals the observer's cumulative
//!   scheduled counter, and likewise for `effective` — after a full run
//!   and at every observation boundary;
//! * **decomposition** (per engine family): the leaping engines' event
//!   provenance counters (`block_applied`, `fallback_literal`, sparse
//!   events) decompose `effective` without loss or double-count;
//! * **monotonicity and harvest correctness** (property): interleaving
//!   `advance` and `advance_observed` in arbitrary chunk sizes never makes
//!   any counter decrease, and the phase-exit harvests (the sparse
//!   skipper's stats are absorbed on exit) never drop or double-count —
//!   the clock identity holds at every interleaving point, not just at
//!   the end.

use plurality_consensus::pop_proto::telemetry::EngineTelemetry;
use plurality_consensus::pop_proto::{Observation, TopologyFamily};
use plurality_consensus::sim_stats::rng::SimRng;
use plurality_consensus::usd_core::backend::{make_simulator, Backend};
use plurality_consensus::usd_core::init::InitialConfigBuilder;

/// Run `backend` to silence observing the whole trajectory; return the
/// telemetry capture plus the observer's final cumulative counters.
fn observed_telemetry(
    backend: Backend,
    n: u64,
    k: usize,
    seed: u64,
) -> (EngineTelemetry, u64, u64) {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut sim = make_simulator(backend, &config);
    let mut rng = SimRng::new(seed);
    let mut obs_interactions = 0u64;
    let mut obs_effective = 0u64;
    sim.advance_observed(&mut rng, u64::MAX / 2, &mut |obs: &Observation<'_>| {
        obs_interactions = obs.interactions;
        obs_effective = obs.effective;
        true
    });
    assert!(sim.is_silent(), "{backend}: run did not stabilize");
    let telemetry = *sim.telemetry();
    assert_eq!(
        telemetry.scheduled,
        sim.interactions(),
        "{backend}: telemetry scheduled != engine interaction clock"
    );
    assert_eq!(
        telemetry.effective,
        sim.effective_interactions(),
        "{backend}: telemetry effective != engine effective counter"
    );
    (telemetry, obs_interactions, obs_effective)
}

#[test]
fn telemetry_clocks_match_observer_and_engine_on_every_backend() {
    for backend in Backend::ALL {
        let (telemetry, obs_interactions, obs_effective) = observed_telemetry(backend, 600, 3, 42);
        assert_eq!(
            telemetry.scheduled, obs_interactions,
            "{backend}: telemetry scheduled != observer cumulative"
        );
        assert_eq!(
            telemetry.effective, obs_effective,
            "{backend}: telemetry effective != observer cumulative"
        );
        assert!(telemetry.scheduled > 0, "{backend}: dead telemetry");
        assert!(telemetry.effective > 0, "{backend}: no effective events");
        let frac = telemetry.effective_fraction();
        assert!(
            frac > 0.0 && frac <= 1.0,
            "{backend}: effective fraction {frac}"
        );
    }
}

#[test]
fn leaping_engines_decompose_effective_by_provenance() {
    // The batch-graph engine accounts every effective event to exactly one
    // source: a block-applied matching draw, a literal dirty-fallback
    // step, or a sparse-phase event.
    let (t, _, _) = observed_telemetry(Backend::BatchGraph, 600, 3, 11);
    assert_eq!(
        t.block_applied + t.fallback_literal + t.sparse.events,
        t.effective,
        "batchgraph: provenance counters do not decompose effective: {t:?}"
    );
    // The clique batch engine's block/fallback counters bound effective
    // from below (its geometric skip phase steps some events outside the
    // block machinery).
    let (t, _, _) = observed_telemetry(Backend::Batch, 600, 3, 11);
    assert!(t.blocks > 0, "batch: no blocks on a dense clique run");
    assert!(
        t.block_applied + t.fallback_literal <= t.effective,
        "batch: block counters overshoot effective: {t:?}"
    );
    // The graph engine on a no-op-dominated configuration (cycle
    // frontier: two opinion domains, only the boundaries active) actually
    // enters the sparse phase and harvests its sidecar stats into the
    // telemetry — without breaking the clock identity.
    use plurality_consensus::pop_proto::{GraphSimulator, Simulator};
    use plurality_consensus::usd_core::protocol::UndecidedStateDynamics;
    let n = 2048usize;
    let graph = TopologyFamily::Cycle.build(n, 0);
    let mut states = vec![0usize; n];
    for s in states.iter_mut().skip(n / 2) {
        *s = 1;
    }
    let mut sim = GraphSimulator::new(UndecidedStateDynamics::new(2), &graph, states);
    let mut rng = SimRng::new(17);
    let (_, silent) = sim.run_to_silence(&mut rng, u64::MAX / 2);
    assert!(silent, "cycle frontier did not stabilize");
    let t = *sim.telemetry();
    assert!(t.sparse_enters > 0, "graph: frontier run never went sparse");
    assert!(
        t.sparse.events > 0,
        "graph: sparse phase reported no events"
    );
    assert!(
        t.sparse.events <= t.effective,
        "graph: sparse events exceed effective: {t:?}"
    );
    assert_eq!(t.scheduled, sim.interactions());
    assert_eq!(t.effective, sim.effective_interactions());
}

/// Every counter the telemetry struct carries, as a flat vector — for the
/// monotonicity property below. Order is irrelevant; completeness is what
/// matters (a counter that silently decreased would escape a spot check).
fn counter_vector(t: &EngineTelemetry) -> Vec<u64> {
    vec![
        t.scheduled,
        t.effective,
        t.dense_steps,
        t.blocks,
        t.block_draws,
        t.block_applied,
        t.fallback_literal,
        t.sparse_enters,
        t.sparse_exits,
        t.pair_draws,
        t.skip_draws,
        t.table_draws,
        t.sparse.events,
        t.sparse.skip_draws,
        t.sparse.event_draws,
        t.sparse.flushes,
        t.sparse.updates_deferred,
        t.sparse.updates_immediate,
        t.sparse.entries_applied,
        t.sparse.entries_cancelled,
        t.sparse.log_cache_hits,
        t.sparse.log_cache_misses,
        t.sparse.bypass_enters,
        t.sparse.bypass_exits,
    ]
}

#[test]
fn counters_are_monotone_across_advance_interleavings() {
    // Drive each backend with an arbitrary-looking but deterministic
    // interleaving of plain `advance` and `advance_observed` in varying
    // chunk sizes. At every boundary the full counter vector must be
    // monotone non-decreasing and the clock identity must hold — which is
    // exactly what fails if a phase-exit harvest drops or double-counts
    // the sparse sidecar's running stats.
    for backend in Backend::ALL {
        let config = InitialConfigBuilder::new(400, 3).figure1();
        let mut sim = make_simulator(backend, &config);
        let mut rng = SimRng::new(97);
        let mut prev = counter_vector(sim.telemetry());
        assert!(prev.iter().all(|&c| c == 0), "{backend}: non-zero at birth");
        let chunks = [3u64, 1, 257, 64, 1023, 12, 4096, 7, 65_536, 100_000];
        for (round, &chunk) in chunks.iter().cycle().take(40).enumerate() {
            let advanced = if round % 3 == 0 {
                let mut hits = 0u64;
                sim.advance_observed(&mut rng, chunk, &mut |_: &Observation<'_>| {
                    hits += 1;
                    true
                });
                hits
            } else {
                sim.advance(&mut rng, chunk)
            };
            let t = sim.telemetry();
            assert_eq!(
                t.scheduled,
                sim.interactions(),
                "{backend}: clock identity broken mid-run (round {round})"
            );
            assert_eq!(
                t.effective,
                sim.effective_interactions(),
                "{backend}: effective identity broken mid-run (round {round})"
            );
            let cur = counter_vector(t);
            for (i, (&was, &now)) in prev.iter().zip(cur.iter()).enumerate() {
                assert!(
                    now >= was,
                    "{backend}: counter #{i} decreased {was} -> {now} (round {round})"
                );
            }
            prev = cur;
            if advanced == 0 && sim.is_silent() {
                break;
            }
        }
        assert!(prev[0] > 0, "{backend}: interleaving drove nothing");
    }
}
