//! Protocol-level contracts that every consensus protocol in the
//! workspace must satisfy, checked through the shared substrate.

use plurality_consensus::prelude::*;
use pop_proto::{CountConfig, CountSimulator, Protocol};
use usd_baselines::{FourStateMajority, VoterDynamics};

/// Every protocol: the transition function is total and stays in range.
fn check_transition_closure<P: Protocol>(proto: &P) {
    let m = proto.num_states();
    for a in 0..m {
        for b in 0..m {
            let (x, y) = proto.transition_indices(a, b);
            assert!(x < m && y < m, "transition left the state space");
        }
    }
}

#[test]
fn transition_closure_for_all_protocols() {
    check_transition_closure(&UndecidedStateDynamics::new(7));
    check_transition_closure(&FourStateMajority);
    check_transition_closure(&VoterDynamics::new(5));
    check_transition_closure(&pop_proto::OneWayEpidemic);
}

/// Every protocol: population is conserved through the generic simulator.
fn check_conservation<P: Protocol + Clone>(proto: P, counts: Vec<u64>, seed: u64) {
    let n: u64 = counts.iter().sum();
    let mut sim = CountSimulator::new(proto, &CountConfig::from_counts(counts));
    let mut rng = SimRng::new(seed);
    for _ in 0..20_000 {
        sim.step(&mut rng);
        assert_eq!(sim.counts().iter().sum::<u64>(), n);
    }
}

#[test]
fn conservation_for_all_protocols() {
    check_conservation(UndecidedStateDynamics::new(3), vec![40, 30, 30, 0], 1);
    check_conservation(FourStateMajority, vec![30, 30, 20, 20], 2);
    check_conservation(VoterDynamics::new(4), vec![25, 25, 25, 25], 3);
}

/// USD-specific contract: the number of *decided* agents never increases
/// by more than 1 per interaction, and u changes by −1, 0, or +2.
#[test]
fn usd_step_deltas_are_the_papers() {
    let config = UsdConfig::decided(vec![40, 35, 25]);
    let mut sim = CountSimulator::new(UndecidedStateDynamics::new(3), &config.to_count_config());
    let mut rng = SimRng::new(4);
    let mut last_u = sim.counts()[3] as i64;
    for _ in 0..20_000 {
        sim.step(&mut rng);
        let u = sim.counts()[3] as i64;
        let du = u - last_u;
        assert!(
            du == 0 || du == -1 || du == 2,
            "u changed by {du}, paper allows -1/0/+2"
        );
        last_u = u;
    }
}

/// Silence is absorbing for every protocol under the generic simulator.
#[test]
fn silent_configurations_are_absorbing() {
    // USD consensus.
    let proto = UndecidedStateDynamics::new(3);
    let mut sim = CountSimulator::new(proto, &CountConfig::from_counts(vec![0, 10, 0, 0]));
    let mut rng = SimRng::new(5);
    for _ in 0..1_000 {
        assert!(!sim.step(&mut rng), "silent configuration changed");
    }
    // Four-state all-weak (post-tie).
    let mut sim = CountSimulator::new(
        FourStateMajority,
        &CountConfig::from_counts(vec![0, 0, 6, 4]),
    );
    for _ in 0..1_000 {
        assert!(!sim.step(&mut rng));
    }
}

/// The four-state protocol's invariant (#StrongA − #StrongB) is conserved
/// along arbitrary trajectories — its exactness mechanism.
#[test]
fn four_state_conserves_signed_token_sum() {
    let init = CountConfig::from_counts(vec![26, 25, 0, 0]);
    let invariant = FourStateMajority::signed_sum(init.counts());
    let mut sim = CountSimulator::new(FourStateMajority, &init);
    let mut rng = SimRng::new(6);
    for _ in 0..50_000 {
        sim.step(&mut rng);
        assert_eq!(FourStateMajority::signed_sum(sim.counts()), invariant);
    }
}

/// Approximate-vs-exact contrast: at margin 1, USD's winner is a coin
/// flip while the four-state protocol is always right.
#[test]
fn exactness_contrast_at_margin_one() {
    let n = 101u64;
    let reps = 60;

    let mut four_correct = 0;
    let mut usd_correct = 0;
    for seed in 0..reps {
        // Four-state, 51 vs 50.
        let init = CountConfig::from_counts(vec![51, 50, 0, 0]);
        let mut sim = CountSimulator::new(FourStateMajority, &init);
        let mut rng = SimRng::new(seed);
        sim.run(&mut rng, 100_000_000, |s| s.is_silent());
        let (a, b) = FourStateMajority::sides(sim.counts());
        if a == n && b == 0 {
            four_correct += 1;
        }

        // USD, 51 vs 50.
        let mut rng = SimRng::new(seed + 10_000);
        let result = RunSpec::new(&UsdConfig::decided(vec![51, 50]))
            .backend(Backend::Count)
            .budget(100_000_000)
            .run(&mut rng);
        if matches!(result.outcome, ConsensusOutcome::Winner(0)) {
            usd_correct += 1;
        }
    }
    assert_eq!(four_correct, reps, "four-state must never lose a majority");
    // USD at margin 1 is essentially a fair race; anything in (20%, 80%)
    // confirms the qualitative difference without flakiness.
    assert!(
        usd_correct > reps / 5 && usd_correct < reps * 4 / 5,
        "USD at margin 1 won {usd_correct}/{reps}; expected near-chance"
    );
}
