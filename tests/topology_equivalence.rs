//! The graphwise active-edge engine and the batch-graph block-leaping
//! engine simulate exactly the same graph-restricted Markov chain as the
//! agentwise engine driven by a `GraphScheduler` — these tests compare the
//! engines' USD stabilization-time *distributions* by two-sample
//! Kolmogorov–Smirnov at α = 0.01 on the complete graph (the degenerate
//! clique topology), a random 8-regular graph, and the torus, plus
//! winner-rate agreement. Fixed seeds, no flaky assertions: the KS
//! thresholds are distribution-level with 150+ samples per engine.

use plurality_consensus::prelude::*;
use pop_proto::checkpoint::{SnapshotReader, SnapshotWriter};
use pop_proto::protocol::OneWayEpidemic;
use pop_proto::simulator::shuffled_layout;
use pop_proto::{
    BatchGraphSimulator, Graph, GraphSimulator, Simulator, TopologyFamily, WideBatchGraphSimulator,
};
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

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden-trajectory cell: with histograms on, run `sim` through the
/// fixed advance sequence of [`snapshot_after_advances`] and then on to
/// silence. Returns the FNV-1a hashes of the `snapshot_state` bytes after
/// the fixed sequence and at silence.
fn golden_hashes(mut sim: Box<dyn Simulator>, seed: u64) -> (u64, u64) {
    sim.set_histograms(true);
    let mut rng = SimRng::new(seed ^ 0x5EED);
    let mut w = SnapshotWriter::new();
    for max in [1, 999, 20_000, 7, 50_000] {
        sim.advance(&mut rng, max);
        sim.snapshot_state(&mut w).expect("snapshot_state failed");
    }
    let fixed = fnv1a(&w.into_bytes());
    while !sim.is_silent() {
        assert!(sim.advance(&mut rng, 100_000) > 0, "stalled before silence");
    }
    let mut w = SnapshotWriter::new();
    sim.snapshot_state(&mut w).expect("snapshot_state failed");
    (fixed, fnv1a(&w.into_bytes()))
}

type GoldenCell = (String, Box<dyn Fn() -> Box<dyn Simulator>>, u64);

/// The golden grid: `(label, engine builder, seed)`. USD cells build
/// through `RunSpec` (topology family, or the clique path); the wide cells
/// run k = 300 opinions (301 states), which routes the batch-graph backend
/// to its u16 state-packing engine. The epidemic cells start from one
/// infected vertex on an expander, so activity rises out of the sparse
/// phase and collapses back into it: both hand-offs are pinned.
fn golden_grid() -> Vec<GoldenCell> {
    let narrow =
        |n: u64| UsdConfig::decided(vec![n * 2 / 5, n * 7 / 20, n - n * 2 / 5 - n * 7 / 20]);
    let wide = |n: u64| {
        let mut x = vec![1u64; 300];
        x[0] = n / 3;
        x[1] = n / 4;
        x[2] = n - n / 3 - n / 4 - 297;
        UsdConfig::decided(x)
    };
    // (family, narrow n, wide n); `None` is the clique path.
    let families: [(Option<TopologyFamily>, u64, u64); 5] = [
        (Some(TopologyFamily::Cycle), 256, 768),
        (Some(TopologyFamily::Torus), 1024, 1024),
        (Some(TopologyFamily::Regular { d: 8 }), 2048, 2048),
        (Some(TopologyFamily::Complete), 256, 1024),
        (None, 256, 1024),
    ];
    let mut grid: Vec<GoldenCell> = Vec::new();
    for (family, n, n_wide) in families {
        let name = family.map_or_else(|| "clique".to_string(), |f| f.name());
        for (backend, tag, config) in [
            (Backend::Graph, "graph", narrow(n)),
            (Backend::BatchGraph, "batchgraph", narrow(n)),
            (Backend::BatchGraph, "batchgraph-wide", wide(n_wide)),
        ] {
            let seed = 0x601D ^ n ^ (tag.len() as u64) << 20;
            let build = move || {
                let mut spec = RunSpec::new(&config)
                    .backend(backend)
                    .topo_seed(seed ^ 0x70F0);
                if let Some(f) = family {
                    spec = spec.topology(f);
                }
                spec.build_simulator(&mut SimRng::new(seed))
            };
            grid.push((format!("{tag} on {name}"), Box::new(build), seed));
        }
    }
    let graph = TopologyFamily::Regular { d: 8 }.build(4096, 9);
    let infected = |n: usize| {
        let mut states = vec![1usize; n];
        states[0] = 0;
        states
    };
    let g = graph.clone();
    grid.push((
        "graph epidemic on regular:8".into(),
        Box::new(move || Box::new(GraphSimulator::new(OneWayEpidemic, &g, infected(4096)))),
        31,
    ));
    let g = graph.clone();
    grid.push((
        "batchgraph epidemic on regular:8".into(),
        Box::new(move || Box::new(BatchGraphSimulator::new(OneWayEpidemic, &g, infected(4096)))),
        32,
    ));
    grid.push((
        "batchgraph-wide epidemic on regular:8".into(),
        Box::new(move || {
            Box::new(WideBatchGraphSimulator::with_states(
                OneWayEpidemic,
                &graph,
                infected(4096),
            ))
        }),
        33,
    ));
    grid
}

/// Golden trajectory pins, recorded before the graph engines were
/// refactored onto one shared core: every graph-engine trajectory —
/// RNG draw order, clocks, phase hand-offs, telemetry counters,
/// histogram buckets and snapshot layout — must reproduce these bytes.
#[test]
fn graph_engine_trajectories_match_golden_hashes() {
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("graph on cycle", 0x9c1ebdbef20a3498, 0xd636554296f9d2e1),
        (
            "batchgraph on cycle",
            0x99bbd7392cab35b2,
            0xa924e942bac5d0e1,
        ),
        (
            "batchgraph-wide on cycle",
            0x362a34f870809827,
            0x9e1589929608776d,
        ),
        ("graph on torus", 0x0a571df1cab2722b, 0x9b8fb0c4f0f9b5aa),
        (
            "batchgraph on torus",
            0xbb5ad6601202bc63,
            0xa9a46ed1f1fcb0d6,
        ),
        (
            "batchgraph-wide on torus",
            0x0bd1c9765803e9de,
            0x840b8e4b32c4c676,
        ),
        ("graph on regular:8", 0x55e1b1a17c3f157f, 0xfec41171621d9b29),
        (
            "batchgraph on regular:8",
            0x0c7c03f268b5ac28,
            0x00e8ad597933c004,
        ),
        (
            "batchgraph-wide on regular:8",
            0xccf68b0328822ddf,
            0x7b19c7a72cdd9ff3,
        ),
        ("graph on complete", 0x47195ad828c35395, 0xc0419c14aa71742d),
        (
            "batchgraph on complete",
            0xd67420e390ca6f69,
            0x298c064e4d7b6ad1,
        ),
        (
            "batchgraph-wide on complete",
            0xc147fe045637782d,
            0x6580b42062b512e2,
        ),
        ("graph on clique", 0xccd303f8452c0d52, 0x473ed87fd2e06ff8),
        (
            "batchgraph on clique",
            0x76242fe830d67609,
            0x3662b507a30011c2,
        ),
        (
            "batchgraph-wide on clique",
            0x781b178b97907c81,
            0xcd3512ede4177727,
        ),
        (
            "graph epidemic on regular:8",
            0x16614e7c5a771d92,
            0x5ae0fd1eb9bae73c,
        ),
        (
            "batchgraph epidemic on regular:8",
            0x52d2fc97ac29a65c,
            0xa5cfa04c470dad3b,
        ),
        (
            "batchgraph-wide epidemic on regular:8",
            0x04f3c57521c6657f,
            0x53f2b8a2c9ff4854,
        ),
    ];
    let actual: Vec<(String, u64, u64)> = golden_grid()
        .into_iter()
        .map(|(label, build, seed)| {
            let (fixed, silent) = golden_hashes(build(), seed);
            (label, fixed, silent)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, f, s)| format!("        (\"{l}\", 0x{f:016x}, 0x{s:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "golden grid changed:\n{table}");
    for ((label, fixed, silent), &(g_label, g_fixed, g_silent)) in actual.iter().zip(GOLDEN) {
        assert_eq!(label, g_label, "golden grid changed:\n{table}");
        assert_eq!(
            (*fixed, *silent),
            (g_fixed, g_silent),
            "{label}: trajectory diverged from the golden pin:\n{table}"
        );
    }
}

/// The wide (u16) batch-graph engine resumes bit-identically: snapshot
/// mid-run, restore into a freshly built engine, continue — the final
/// snapshot equals the uninterrupted run's, on a sparse-heavy topology
/// (cycle) and an effective-dominated one (8-regular).
#[test]
fn wide_batchgraph_resume_is_bit_identical() {
    let mut x = vec![1u64; 300];
    x[0] = 1024 - 299;
    let config = UsdConfig::decided(x);
    for family in [TopologyFamily::Cycle, TopologyFamily::Regular { d: 8 }] {
        let spec = || {
            RunSpec::new(&config)
                .backend(Backend::BatchGraph)
                .topology(family)
                .topo_seed(17)
        };
        let finish = |mut sim: Box<dyn Simulator>, rng: &mut SimRng| {
            while !sim.is_silent() {
                assert!(sim.advance(rng, 100_000) > 0, "stalled before silence");
            }
            let mut w = SnapshotWriter::new();
            sim.snapshot_state(&mut w).expect("snapshot_state failed");
            w.into_bytes()
        };
        let mut sim = spec().build_simulator(&mut SimRng::new(5));
        sim.set_histograms(true);
        let mut rng = SimRng::new(6);
        for max in [1, 999, 20_000] {
            sim.advance(&mut rng, max);
        }
        assert!(!sim.is_silent(), "{family}: silent before the split");
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w).expect("snapshot_state failed");
        let mid = w.into_bytes();
        assert_eq!(mid[0], 6, "{family}: not the wide engine's snapshot tag");
        let rng_state = rng.state();
        let reference = finish(sim, &mut rng);

        let mut fresh = spec().build_simulator(&mut SimRng::new(5));
        fresh.set_histograms(true);
        fresh
            .restore_state(&mut SnapshotReader::new(&mid))
            .expect("restore_state failed");
        let mut rng = SimRng::from_state(rng_state).expect("non-degenerate RNG state");
        let resumed = finish(fresh, &mut rng);
        assert!(
            reference == resumed,
            "{family}: resumed wide run is not byte-identical"
        );
    }
}
