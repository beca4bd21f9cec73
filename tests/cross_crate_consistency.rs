//! Cross-crate integration: the generic substrate, the specialized USD
//! engine, the theory module, and the experiment harness must tell one
//! consistent story.

use plurality_consensus::prelude::*;
use plurality_consensus::usd_experiments::{fig1, ExpArgs};
use pop_proto::{CountSimulator, Protocol};

#[test]
fn usd_config_and_protocol_agree_on_state_space() {
    let proto = UndecidedStateDynamics::new(5);
    let config = InitialConfigBuilder::new(100, 5).balanced();
    let cc = config.to_count_config();
    assert_eq!(cc.num_states(), proto.num_states());
    assert_eq!(cc.n(), 100);
    // The undecided slot is the last index.
    assert_eq!(cc.count(proto.undecided_index()), 0);
}

#[test]
fn theory_bounds_bracket_simulated_time_small_instance() {
    // End-to-end: simulate the paper's configuration and verify the
    // measured time lands in the [lower, C·upper] band the theory module
    // predicts.
    let n = 5_000u64;
    let k = 6usize;
    let bounds = Bounds::new(n, k);
    let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
    let mut total = 0.0;
    let reps = 5;
    for seed in 0..reps {
        let mut rng = SimRng::new(seed);
        let result = RunSpec::new(&config)
            .backend(Backend::SkipAhead)
            .run(&mut rng);
        assert!(result.stabilized());
        total += result.parallel_time(n);
    }
    let mean = total / reps as f64;
    assert!(
        mean >= bounds.lower_bound_parallel(),
        "measured {mean} below the lower bound {}",
        bounds.lower_bound_parallel()
    );
    assert!(
        mean <= 5.0 * bounds.upper_bound_parallel(),
        "measured {mean} far above the upper bound {}",
        bounds.upper_bound_parallel()
    );
}

#[test]
fn fig1_run_exhibits_papers_qualitative_shape() {
    // The three §2 observations, checked end-to-end on a real run:
    // (1) u(t) settles near n/2 − n/4k and never substantially exceeds it;
    // (2) reaching 2·x1(0) consumes most of the stabilization time;
    // (3) the majority wins.
    let n = 20_000u64;
    let k = plurality_consensus::usd_core::theory::figure1_k(n);
    let run = fig1::simulate_fig1_run(n, k, 3, fig1::default_budget(n, k));
    assert!(run.stabilized);
    assert_eq!(run.winner, Some(0), "majority must win at the fig1 bias");

    let plateau = undecided_plateau(n, k);
    let slack = 3.0 * ((n as f64) * (n as f64).ln()).sqrt()
        + 10.0 * n as f64 / ((k as f64 - 1.0) * (k as f64 - 1.0));
    assert!(
        (run.max_undecided as f64) <= plateau + slack,
        "u exceeded plateau+slack: {} vs {}",
        run.max_undecided,
        plateau + slack
    );

    let doubling = run.majority_doubling.expect("x1 must double") as f64;
    let frac = doubling / run.stabilization as f64;
    assert!(
        frac > 0.35,
        "doubling consumed only {frac:.2} of the run; paper expects the bulk"
    );
}

#[test]
fn experiment_reports_run_from_the_facade() {
    let args = ExpArgs {
        n: 2_000,
        quick: true,
        seeds: 1,
        ..ExpArgs::default()
    };
    let report = plurality_consensus::usd_experiments::fig1::fig1_left_report(&args);
    let text = report.render();
    assert!(text.contains("Figure 1 (left)"));
    assert!(text.contains("parallel time"));
}

#[test]
fn drift_analysis_lemma_params_match_simulation_probabilities() {
    // Pin the usd_walks adapters against a direct empirical estimate: the
    // probability that one interaction changes x_i, measured by simulation,
    // must match opinion_walk_law's p.
    use plurality_consensus::drift_analysis::usd_walks::opinion_walk_law;
    let config = UsdConfig::new(vec![300, 200, 100], 400);
    let (p, _q) = opinion_walk_law(&config, 0);

    let mut changes = 0u64;
    let trials = 200_000u64;
    let mut rng = SimRng::new(5);
    let counts = config.to_count_config();
    for _ in 0..trials {
        // One interaction from a fresh copy: exact one-step marginal.
        let mut sim = CountSimulator::new(UndecidedStateDynamics::new(3), &counts);
        let before = sim.counts()[0];
        sim.step(&mut rng);
        if sim.counts()[0] != before {
            changes += 1;
        }
    }
    let empirical = changes as f64 / trials as f64;
    assert!(
        (empirical - p).abs() < 0.005,
        "empirical step probability {empirical} vs closed form {p}"
    );
}
