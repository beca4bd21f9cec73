//! The graphwise active-edge engine and the batch-graph block-leaping
//! engine simulate exactly the same graph-restricted Markov chain as the
//! agentwise engine driven by a `GraphScheduler` — these tests compare the
//! engines' USD stabilization-time *distributions* by two-sample
//! Kolmogorov–Smirnov at α = 0.01 on the complete graph (the degenerate
//! clique topology), a random 8-regular graph, and the torus, plus
//! winner-rate agreement. Fixed seeds, no flaky assertions: the KS
//! thresholds are distribution-level with 150+ samples per engine.

use plurality_consensus::prelude::*;
use pop_proto::checkpoint::SnapshotWriter;
use pop_proto::simulator::shuffled_layout;
use pop_proto::{BatchGraphSimulator, Graph, GraphSimulator, Simulator, TopologyFamily};
use sim_stats::ks::{ks_critical_value, ks_statistic};
use usd_core::backend::Backend;
use usd_core::RunSpec;

/// Stabilization-time samples (interactions) for one backend on one
/// topology. Each repetition draws its own layout and trajectory from a
/// per-rep generator; the graph is rebuilt per rep from a rep-dependent
/// seed so the samples marginalize over the random families too.
fn samples(
    backend: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    reps: u64,
    seed_base: u64,
) -> Vec<f64> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    (0..reps)
        .map(|rep| {
            let mut rng = SimRng::new(seed_base + rep);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(family)
                .topo_seed(0xBEEF ^ rep)
                .run(&mut rng);
            assert!(
                result.stabilized(),
                "{backend} rep {rep} did not stabilize on {family}"
            );
            result.interactions as f64
        })
        .collect()
}

fn assert_ks_equivalent(
    reference: Backend,
    candidate: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    reps: u64,
) {
    let a = samples(reference, family, n, k, reps, 40_000);
    let b = samples(candidate, family, n, k, reps, 80_000);
    let d = ks_statistic(&a, &b);
    let crit = ks_critical_value(a.len(), b.len(), 0.01);
    assert!(
        d < crit,
        "{family}: {candidate} vs {reference} stabilization-time KS {d:.4} >= critical {crit:.4}"
    );
}

/// KS equivalence on the complete graph: the graphwise engine's degenerate
/// clique instance must reproduce the agentwise stabilization-time law.
#[test]
fn graphwise_vs_agentwise_complete_graph_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Complete,
        400,
        3,
        150,
    );
}

/// KS equivalence on a random 8-regular graph — the issue's headline
/// correctness criterion for the topology subsystem.
#[test]
fn graphwise_vs_agentwise_random_8_regular_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Regular { d: 8 },
        512,
        2,
        150,
    );
}

/// KS equivalence of the block-leaping engine against the graphwise
/// reference on the complete graph (every draw at n = 400 hits the
/// matching machinery: dense clique states mean collisions and fallbacks
/// fire constantly).
#[test]
fn batchgraph_vs_graphwise_complete_graph_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Complete,
        400,
        3,
        150,
    );
}

/// KS equivalence of the block-leaping engine on a random 8-regular graph
/// — the effective-dominated regime the engine was built for.
#[test]
fn batchgraph_vs_graphwise_random_8_regular_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Regular { d: 8 },
        512,
        2,
        150,
    );
}

/// KS equivalence of the block-leaping engine on the torus — the
/// low-conductance family where the run crosses the block ↔ sparse
/// hand-off repeatedly, so the phase hysteresis is what is being tested.
#[test]
fn batchgraph_vs_graphwise_torus_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Torus,
        441,
        2,
        150,
    );
}

/// KS equivalence of the block-leaping engine on the cycle — the most
/// no-op-dominated family, where the whole run lives in the shared sparse
/// skipper and its sparse blocks apply up to 64 events per advancement
/// (PR 5). This re-pins the sparse-phase batching against the per-event
/// graphwise reference.
#[test]
fn batchgraph_vs_graphwise_cycle_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Cycle,
        96,
        2,
        150,
    );
}

/// KS equivalence of the graphwise engine against the literal agentwise
/// engine on the torus: with the deferred-update sparse skipper (PR 5)
/// the graphwise sparse phase defers its Fenwick materialization, and
/// this pins that the induced chain — and the skip-accounted interaction
/// clock — still match the engine that simulates every scheduled draw.
#[test]
fn graphwise_vs_agentwise_torus_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Torus,
        196,
        2,
        120,
    );
}

/// KS equivalence of the graphwise engine against the literal agentwise
/// engine on the **torus endgame** — one minority square patch on an
/// otherwise-converged torus, the benched scenario whose runs live almost
/// entirely in the sparse skipper at a *low* sidecar cancel rate. Re-pins
/// the chain after the adaptive deferral bypass (PR 6): the policy may
/// only change Fenwick bookkeeping, never the sampled trajectory law.
#[test]
fn graphwise_vs_agentwise_torus_endgame_ks() {
    use plurality_consensus::pop_proto::{
        AgentSimulator, GraphScheduler, GraphSimulator, Simulator,
    };
    use plurality_consensus::usd_core::protocol::UndecidedStateDynamics;

    let n = TopologyFamily::Torus.snap_n(196);
    let side = (n as f64).sqrt() as usize;
    let patch = 4usize;
    let reps = 120u64;
    let endgame_states = || {
        let mut states = vec![0usize; n];
        for r in 0..patch {
            for c in 0..patch {
                states[r * side + c] = 1;
            }
        }
        states
    };
    let samples = |graphwise: bool, seed_base: u64| -> Vec<f64> {
        let graph = TopologyFamily::Torus.build(n, 0);
        (0..reps)
            .map(|rep| {
                let mut rng = SimRng::new(seed_base + rep);
                let proto = UndecidedStateDynamics::new(2);
                let mut sim: Box<dyn Simulator> = if graphwise {
                    Box::new(GraphSimulator::new(proto, &graph, endgame_states()))
                } else {
                    Box::new(AgentSimulator::new(
                        proto,
                        GraphScheduler::new(graph.clone()),
                        endgame_states(),
                    ))
                };
                let (interactions, silent) = sim.run_to_silence(&mut rng, u64::MAX / 2);
                assert!(silent, "endgame rep {rep} did not stabilize");
                interactions as f64
            })
            .collect()
    };
    let a = samples(false, 120_000);
    let b = samples(true, 220_000);
    let d = ks_statistic(&a, &b);
    let crit = ks_critical_value(a.len(), b.len(), 0.01);
    assert!(
        d < crit,
        "torus endgame: graph vs agent stabilization-time KS {d:.4} >= critical {crit:.4}"
    );
}

/// Winner distributions agree under a strong bias: both engines elect the
/// plurality at essentially the same high rate on a sparse topology.
#[test]
fn graphwise_and_agentwise_agree_on_winner_rate() {
    let n = 512u64;
    let k = 2usize;
    let reps = 80u64;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut rates = [0.0f64; 2];
    for (slot, backend) in [Backend::Agent, Backend::Graph].into_iter().enumerate() {
        let mut wins = 0u64;
        for rep in 0..reps {
            let mut rng = SimRng::new(rep + 7_000 * slot as u64);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(TopologyFamily::Regular { d: 8 })
                .topo_seed(0xABCD ^ rep)
                .run(&mut rng);
            if result.plurality_won() {
                wins += 1;
            }
        }
        rates[slot] = wins as f64 / reps as f64;
    }
    assert!(rates[0] > 0.85, "agentwise win rate {}", rates[0]);
    assert!(rates[1] > 0.85, "graphwise win rate {}", rates[1]);
    assert!(
        (rates[0] - rates[1]).abs() < 0.12,
        "win rates diverge: {rates:?}"
    );
}

/// The graphwise clock is calibrated: mean stabilization interactions on a
/// no-op-heavy topology (the cycle) match the agentwise engine, which
/// counts every scheduled interaction one by one. This exercises the
/// sparse-phase geometric skip accounting specifically — the cycle spends
/// > 99% of its schedule in skipped no-op runs.
#[test]
fn graphwise_skip_clock_matches_agentwise_on_cycle() {
    let n = 96u64;
    let k = 2usize;
    let reps = 200u64;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut means = [0.0f64; 2];
    for (slot, backend) in [Backend::Agent, Backend::Graph].into_iter().enumerate() {
        for rep in 0..reps {
            let mut rng = SimRng::new(rep + 11_000 * slot as u64);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(TopologyFamily::Cycle)
                .topo_seed(1)
                .run(&mut rng);
            assert!(result.stabilized());
            means[slot] += result.interactions as f64;
        }
        means[slot] /= reps as f64;
    }
    let rel = (means[0] - means[1]).abs() / means[0];
    assert!(
        rel < 0.12,
        "interaction clocks diverge: agent {} vs graph {}",
        means[0],
        means[1]
    );
}

/// Drive `sim` through a fixed sequence of `advance` horizons, then on to
/// silence, and return its `snapshot_state` bytes (state, clocks, sparse
/// sidecar, telemetry) after each fixed horizon and at silence.
fn snapshot_after_advances(mut sim: Box<dyn Simulator>) -> Vec<u8> {
    let mut rng = SimRng::new(0x5EED);
    let mut w = SnapshotWriter::new();
    for max in [1, 999, 20_000, 7, 50_000] {
        sim.advance(&mut rng, max);
        sim.snapshot_state(&mut w).expect("snapshot_state failed");
    }
    while !sim.is_silent() {
        assert!(sim.advance(&mut rng, 100_000) > 0, "stalled before silence");
    }
    sim.snapshot_state(&mut w).expect("snapshot_state failed");
    w.into_bytes()
}

/// The graph engines take the graph as `impl Into<CsrGraph>`: an owned
/// random-regular graph moves its edge list and generator-built CSR in, a
/// `&Graph` is copied, and an edge-list-only copy has its CSR scattered.
/// All three must run the same trajectory, byte for byte.
#[test]
fn owned_and_borrowed_graphs_build_identical_engines() {
    let n = 4096;
    let graph = TopologyFamily::Regular { d: 8 }.build(n, 21);
    let rebuilt = Graph::from_edges(n, graph.edges().to_vec());
    let config = InitialConfigBuilder::new(n as u64, 2).figure1();
    let states = shuffled_layout(&config.to_count_config(), &mut SimRng::new(3));
    let proto = UndecidedStateDynamics::new(2);

    let borrowed = snapshot_after_advances(Box::new(BatchGraphSimulator::new(
        proto,
        &graph,
        states.clone(),
    )));
    let scattered = snapshot_after_advances(Box::new(BatchGraphSimulator::new(
        proto,
        rebuilt.clone(),
        states.clone(),
    )));
    let owned = snapshot_after_advances(Box::new(BatchGraphSimulator::new(
        proto,
        graph.clone(),
        states.clone(),
    )));
    assert_eq!(owned, borrowed, "batchgraph: owned vs borrowed graph");
    assert_eq!(
        owned, scattered,
        "batchgraph: generator CSR vs scatter pass"
    );

    let borrowed =
        snapshot_after_advances(Box::new(GraphSimulator::new(proto, &graph, states.clone())));
    let scattered = snapshot_after_advances(Box::new(GraphSimulator::new(
        proto,
        rebuilt,
        states.clone(),
    )));
    let owned = snapshot_after_advances(Box::new(GraphSimulator::new(proto, graph, states)));
    assert_eq!(owned, borrowed, "graph: owned vs borrowed graph");
    assert_eq!(owned, scattered, "graph: generator CSR vs scatter pass");
}
