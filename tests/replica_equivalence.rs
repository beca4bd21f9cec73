//! The bit-parallel replica engine ≡ scalar runs.
//!
//! The replica engine packs one state bit (per plane) of up to 64
//! independent replica runs into each machine word and applies the USD
//! update to all lanes of a shared (edge, orientation) draw at once. These
//! tests pin the three claims that make an ensemble run a drop-in
//! replacement for 64 scalar runs:
//!
//! * **lane-0 bit-identity**: under a shared scheduler stream and layout,
//!   lane 0 of a replica run holds exactly the scalar agentwise engine's
//!   states after every draw — the packed update *is* the scalar update;
//! * **per-lane stabilization law**: the 64 lane stabilization times of
//!   one ensemble pass are distributed as 64 independent scalar agentwise
//!   runs (two-sample Kolmogorov–Smirnov at α = 0.01 on the complete
//!   graph, a random 8-regular graph, and the cycle);
//! * **lane retirement**: the live-lane bitmap only ever loses bits, a
//!   retired lane's counts and stabilization clock never change again, and
//!   the aggregate counts stay the exact lane sum throughout.

use plurality_consensus::pop_proto::{
    AgentSimulator, CliqueScheduler, ReplicaSimulator, Simulator, TopologyFamily,
};
use plurality_consensus::usd_core::protocol::UndecidedStateDynamics;
use plurality_consensus::usd_core::{Backend, EnsembleOutcome, RunSpec};
use sim_stats::ks::{ks_critical_value, ks_statistic};
use sim_stats::rng::SimRng;
use usd_core::init::InitialConfigBuilder;

/// `lanes` independent shuffles of the configuration's canonical state
/// block — the same layout family the engine constructors use.
fn usd_layouts(config: &usd_core::UsdConfig, lanes: u32, seed: u64) -> Vec<Vec<usize>> {
    let counts = config.to_count_config();
    let mut rng = SimRng::new(seed);
    (0..lanes)
        .map(|_| {
            let mut layout = Vec::with_capacity(counts.n() as usize);
            for (state, &c) in counts.counts().iter().enumerate() {
                layout.extend(std::iter::repeat_n(state, c as usize));
            }
            rng.shuffle(&mut layout);
            layout
        })
        .collect()
}

/// Lane 0 of a packed USD run holds the scalar agentwise engine's exact
/// states after every shared draw: the ~6-bitwise-op update applied to all
/// lanes is, lane by lane, the scalar `transition_indices` update.
#[test]
fn lane_zero_usd_trajectory_is_bit_identical_to_scalar_agentwise() {
    let n = 120u64;
    let k = 3usize;
    for seed in [2u64, 31, 404] {
        let config = InitialConfigBuilder::new(n, k).figure1();
        let layouts = usd_layouts(&config, 16, seed);
        let proto = UndecidedStateDynamics::new(k);
        let mut replica = ReplicaSimulator::new_clique(proto, n as usize, &layouts);
        let mut scalar = AgentSimulator::new(
            UndecidedStateDynamics::new(k),
            CliqueScheduler::new(n as usize),
            layouts[0].clone(),
        );
        // Same seed, separate streams: each engine draws one (pair) per
        // step, so the streams stay aligned draw for draw.
        let mut rng_r = SimRng::new(seed ^ 0xD1CE);
        let mut rng_s = SimRng::new(seed ^ 0xD1CE);
        let mut lane0_done = false;
        for step in 0..200_000u64 {
            replica.draw_step(&mut rng_r);
            Simulator::step(&mut scalar, &mut rng_s);
            assert_eq!(
                replica.lane_states(0),
                scalar.states(),
                "seed {seed}: lane 0 diverged from the scalar engine at draw {step}"
            );
            assert_eq!(replica.counts_of_lane(0), Simulator::counts(&scalar));
            if Simulator::is_silent(&scalar) && !lane0_done {
                lane0_done = true;
                assert_eq!(
                    replica.stabilized_at(0),
                    Some(Simulator::interactions(&scalar)),
                    "seed {seed}: lane 0 retired at a different clock"
                );
            }
            if replica.is_silent() {
                break;
            }
        }
        assert!(replica.is_silent(), "seed {seed}: ensemble did not finish");
        assert!(lane0_done, "seed {seed}: scalar run did not finish");
    }
}

/// The engine keeps per-lane counts in packed 21-bit fields only while
/// n < 2²⁰ and in plain per-lane counters from n = 2²⁰ on. On both sides of
/// that boundary, with one state holding almost every agent, lane 0 must
/// still match the scalar agentwise run of the same stream after a fixed
/// budget of draws (a few·n, so debug builds stay fast).
#[test]
fn lane_zero_matches_agentwise_across_the_packed_count_boundary() {
    let k = 2usize;
    for n in [(1u64 << 20) - 1, 1 << 20] {
        let config = usd_core::UsdConfig::new(vec![n - 2_000, 1_000], 1_000);
        let layouts = usd_layouts(&config, 2, n);
        let mut replica =
            ReplicaSimulator::new_clique(UndecidedStateDynamics::new(k), n as usize, &layouts);
        let mut scalar = AgentSimulator::new(
            UndecidedStateDynamics::new(k),
            CliqueScheduler::new(n as usize),
            layouts[0].clone(),
        );
        let mut rng_r = SimRng::new(n ^ 0xB0B);
        let mut rng_s = SimRng::new(n ^ 0xB0B);
        for _ in 0..3 * n {
            replica.draw_step(&mut rng_r);
            Simulator::step(&mut scalar, &mut rng_s);
        }
        assert_eq!(
            replica.counts_of_lane(0),
            Simulator::counts(&scalar),
            "n = {n}: lane 0 counts"
        );
        assert_eq!(
            replica.lane_clock(),
            Simulator::interactions(&scalar),
            "n = {n}"
        );
        assert_eq!(
            replica.lane_states(0),
            scalar.states(),
            "n = {n}: lane 0 states"
        );
        assert!(
            Simulator::effective_interactions(&scalar) > 0,
            "n = {n}: the budget saw no effective interaction"
        );
    }
}

/// Lane stabilization times pooled over `passes` ensemble passes of
/// `lanes` lanes each, through the public [`RunSpec`] surface (the engine
/// is kept; [`EnsembleOutcome`] reads the per-lane results off it).
fn replica_lane_times(
    family: TopologyFamily,
    n: u64,
    k: usize,
    passes: u64,
    lanes: u32,
    seed: u64,
) -> Vec<f64> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut times = Vec::new();
    for pass in 0..passes {
        let mut rng = SimRng::new(seed + pass);
        let (_, sim) = RunSpec::new(&config)
            .backend(Backend::Replica)
            .topology(family)
            .topo_seed(seed + pass)
            .replicas(lanes)
            .run_keeping(&mut rng);
        let sim = sim.expect("these families always have edges");
        let ens = EnsembleOutcome::from_simulator(sim.as_ref(), k, config.plurality());
        assert!(ens.all_stabilized(), "{family}: a lane failed to stabilize");
        times.extend(ens.stabilization_times());
    }
    times
}

/// Scalar agentwise stabilization times, one seeded run per sample, with
/// per-rep graphs so the samples marginalize over the random families the
/// same way independent replicas would.
fn agent_times(family: TopologyFamily, n: u64, k: usize, reps: u64, seed_base: u64) -> Vec<f64> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    (0..reps)
        .map(|rep| {
            let mut rng = SimRng::new(seed_base + rep);
            let result = RunSpec::new(&config)
                .backend(Backend::Agent)
                .topology(family)
                .topo_seed(seed_base + rep)
                .run(&mut rng);
            assert!(result.stabilized(), "{family}: agent rep {rep} timed out");
            result.interactions as f64
        })
        .collect()
}

/// 64 lane clocks vs 100 scalar agentwise runs by two-sample KS at
/// α = 0.01. The lane clock counts the lane's own scheduled draws —
/// directly comparable to a scalar interaction count.
///
/// Lanes of one pass share a scheduler stream, so each lane's *marginal*
/// law is exactly the scalar law but lanes are correlated, and KS assumes
/// (near-)independent samples. Where stabilization-time variance is
/// layout-dominated (complete, regular — expander-like mixing) a single
/// 64-lane pass is effectively independent; on the cycle the variance is
/// schedule-dominated, so the sample pools lanes from 16 passes instead.
fn assert_lane_law_matches_agentwise(
    family: TopologyFamily,
    n: u64,
    k: usize,
    passes: u64,
    lanes: u32,
) {
    let ensemble = replica_lane_times(family, n, k, passes, lanes, 0xE25);
    assert_eq!(ensemble.len(), 64);
    let scalar = agent_times(family, n, k, 100, 52_000);
    let d = ks_statistic(&ensemble, &scalar);
    let crit = ks_critical_value(ensemble.len(), scalar.len(), 0.01);
    assert!(
        d < crit,
        "{family}: per-lane vs scalar stabilization-time KS {d:.4} >= critical {crit:.4}"
    );
}

#[test]
fn per_lane_stabilization_law_matches_agentwise_on_complete_graph() {
    assert_lane_law_matches_agentwise(TopologyFamily::Complete, 256, 3, 1, 64);
}

#[test]
fn per_lane_stabilization_law_matches_agentwise_on_random_8_regular() {
    assert_lane_law_matches_agentwise(TopologyFamily::Regular { d: 8 }, 512, 2, 1, 64);
}

#[test]
fn per_lane_stabilization_law_matches_agentwise_on_cycle() {
    assert_lane_law_matches_agentwise(TopologyFamily::Cycle, 96, 2, 16, 4);
}

/// Lane-retirement bitmap properties, checked along whole trajectories
/// over several seeds: retirement is monotone, a retired lane is frozen
/// (counts and clock), the aggregate counts are the exact lane sum, and
/// silence is precisely "every lane retired".
#[test]
fn lane_retirement_is_monotone_and_freezes_lanes() {
    let n = 80usize;
    let k = 2usize;
    for seed in [7u64, 19, 83, 641] {
        let config = InitialConfigBuilder::new(n as u64, k).figure1();
        let layouts = usd_layouts(&config, 64, seed);
        let mut sim = ReplicaSimulator::new_clique(UndecidedStateDynamics::new(k), n, &layouts);
        let mut rng = SimRng::new(seed);
        let mut prev_live = sim.live_mask();
        let mut frozen: Vec<Option<(Vec<u64>, u64)>> = vec![None; 64];
        while !sim.is_silent() {
            sim.draw_step(&mut rng);
            let live = sim.live_mask();
            assert_eq!(live & !prev_live, 0, "seed {seed}: a retired lane revived");
            prev_live = live;
            let mut lane_sum = vec![0u64; k + 1];
            for lane in 0..64u32 {
                let counts = sim.counts_of_lane(lane).to_vec();
                assert_eq!(
                    counts.iter().sum::<u64>(),
                    n as u64,
                    "seed {seed}: lane {lane} population not conserved"
                );
                for (s, &c) in counts.iter().enumerate() {
                    lane_sum[s] += c;
                }
                let retired = live & (1 << lane) == 0;
                assert_eq!(
                    sim.stabilized_at(lane).is_some(),
                    retired,
                    "seed {seed}: lane {lane} bitmap and clock disagree"
                );
                if retired {
                    let clock = sim.stabilized_at(lane).unwrap();
                    match &frozen[lane as usize] {
                        None => frozen[lane as usize] = Some((counts, clock)),
                        Some((c0, t0)) => {
                            assert_eq!(&counts, c0, "seed {seed}: retired lane {lane} moved");
                            assert_eq!(clock, *t0, "seed {seed}: retired clock changed");
                        }
                    }
                }
            }
            assert_eq!(
                lane_sum,
                sim.counts(),
                "seed {seed}: aggregate counts are not the lane sum"
            );
        }
        assert_eq!(sim.live_mask(), 0, "seed {seed}: silent with live lanes");
        for lane in 0..64u32 {
            let t = sim.stabilized_at(lane).expect("every lane retired");
            assert!(t <= sim.draws(), "seed {seed}: lane clock past the draws");
        }
    }
}
