//! Property-based tests for usd-core.
//!
//! Key properties: population conservation across engines for arbitrary
//! configurations, exactness of the closed-form drifts against brute-force
//! enumeration for arbitrary configurations, binary trajectory round-trips,
//! and consistency between the specialized skip-ahead engine and the
//! generic substrate simulator running the same protocol.

use pop_proto::{CountSimulator, Protocol, Simulator};
use proptest::prelude::*;
use sim_stats::rng::SimRng;
use usd_core::analysis::{
    expected_gap_drift, expected_opinion_drift, expected_undecided_drift, interaction_probabilities,
};
use usd_core::encode::Trajectory;
use usd_core::protocol::UndecidedStateDynamics;
use usd_core::{SkipAheadSimulator, UsdConfig};

/// Arbitrary small USD configurations with n ≥ 2.
fn usd_config() -> impl Strategy<Value = UsdConfig> {
    (1usize..5)
        .prop_flat_map(|k| (proptest::collection::vec(0u64..25, k), 0u64..25))
        .prop_filter("need n >= 2", |(x, u)| x.iter().sum::<u64>() + u >= 2)
        .prop_map(|(x, u)| UsdConfig::new(x, u))
}

/// Brute-force one-step drift of a statistic by enumerating ordered pairs.
fn brute_force_drift(config: &UsdConfig, stat: impl Fn(&UsdConfig) -> f64) -> f64 {
    let k = config.k();
    let proto = UndecidedStateDynamics::new(k);
    let counts = config.to_count_config();
    let n = config.n() as f64;
    let base = stat(config);
    let mut acc = 0.0;
    for a in 0..=k {
        let ca = counts.count(a);
        if ca == 0 {
            continue;
        }
        for b in 0..=k {
            let cb = if a == b {
                counts.count(b).saturating_sub(1)
            } else {
                counts.count(b)
            };
            if cb == 0 {
                continue;
            }
            let weight = ca as f64 * cb as f64 / (n * (n - 1.0));
            let (ta, tb) = proto.transition_indices(a, b);
            let mut next = counts.counts().to_vec();
            next[a] -= 1;
            next[b] -= 1;
            next[ta] += 1;
            next[tb] += 1;
            let next_cfg = UsdConfig::new(next[..k].to_vec(), next[k]);
            acc += weight * (stat(&next_cfg) - base);
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The skip-ahead engine conserves the population on any input.
    #[test]
    fn skip_ahead_conserves_population(config in usd_config(), seed in any::<u64>()) {
        let n = config.n();
        let mut skip = SkipAheadSimulator::new(&config);
        let mut rng = SimRng::new(seed ^ 0x1234);
        for _ in 0..300 {
            if skip.advance(&mut rng, u64::MAX) == 0 {
                break;
            }
            prop_assert_eq!(skip.counts().iter().sum::<u64>(), n);
        }
    }

    /// Closed-form undecided drift equals brute-force enumeration.
    #[test]
    fn undecided_drift_exact(config in usd_config()) {
        let closed = expected_undecided_drift(&config);
        let brute = brute_force_drift(&config, |c| c.u() as f64);
        prop_assert!((closed - brute).abs() < 1e-9,
            "closed {} vs brute {} for {}", closed, brute, config);
    }

    /// Closed-form opinion drift equals brute-force enumeration.
    #[test]
    fn opinion_drift_exact(config in usd_config()) {
        for i in 0..config.k() {
            let closed = expected_opinion_drift(&config, i);
            let brute = brute_force_drift(&config, |c| c.x(i) as f64);
            prop_assert!((closed - brute).abs() < 1e-9,
                "opinion {}: closed {} vs brute {} for {}", i, closed, brute, config);
        }
    }

    /// Closed-form gap drift equals brute-force enumeration.
    #[test]
    fn gap_drift_exact(config in usd_config()) {
        for i in 0..config.k() {
            for j in 0..config.k() {
                if i == j { continue; }
                let closed = expected_gap_drift(&config, i, j);
                let brute = brute_force_drift(&config, |c| c.gap(i, j) as f64);
                prop_assert!((closed - brute).abs() < 1e-9,
                    "gap ({},{}): closed {} vs brute {}", i, j, closed, brute);
            }
        }
    }

    /// Outcome probabilities are a distribution and noop matches the
    /// protocol's is_noop census.
    #[test]
    fn interaction_probabilities_are_distribution(config in usd_config()) {
        let p = interaction_probabilities(&config);
        prop_assert!(p.clash >= -1e-12 && p.adopt >= -1e-12 && p.noop >= -1e-12);
        prop_assert!((p.clash + p.adopt + p.noop - 1.0).abs() < 1e-9);
    }

    /// The trajectory binary format round-trips arbitrary snapshots.
    #[test]
    fn trajectory_roundtrip(config in usd_config(), times in proptest::collection::vec(0u64..1_000_000, 0..10)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut traj = Trajectory::new(config.n(), config.k());
        for &t in &sorted {
            traj.push(t, config.clone());
        }
        let decoded = Trajectory::decode(traj.encode()).unwrap();
        prop_assert_eq!(decoded, traj);
    }

    /// The generic substrate simulator running the USD protocol and the
    /// specialized skip-ahead engine both preserve silence as absorbing.
    #[test]
    fn silence_absorbing_everywhere(config in usd_config(), seed in any::<u64>()) {
        if !config.is_silent() {
            return Ok(());
        }
        let proto = UndecidedStateDynamics::new(config.k());
        let cc = config.to_count_config();
        let mut generic = CountSimulator::new(proto, &cc);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(!generic.step(&mut rng));
        }
        let mut skip = SkipAheadSimulator::new(&config);
        prop_assert_eq!(skip.advance_changed(&mut rng, 100), (0, false));
    }

    /// Silence predicates agree between UsdConfig and the generic protocol.
    #[test]
    fn silence_predicates_agree(config in usd_config()) {
        let proto = UndecidedStateDynamics::new(config.k());
        let via_protocol = proto.is_silent(config.to_count_config().counts());
        prop_assert_eq!(config.is_silent(), via_protocol, "config {}", config);
    }

    /// max_gap is max - min and bias is first - second order statistic.
    #[test]
    fn gap_and_bias_order_statistics(config in usd_config()) {
        let sorted = config.sorted_desc();
        prop_assert_eq!(config.max_gap(), sorted[0] - sorted[sorted.len() - 1]);
        if sorted.len() >= 2 {
            prop_assert_eq!(config.bias(), sorted[0] - sorted[1]);
        }
    }
}

/// Cross-engine distributional agreement on a fixed mid-size instance:
/// the generic CountSimulator (running UndecidedStateDynamics) and the
/// specialized skip-ahead engine must agree on the mean stabilization time.
#[test]
fn count_and_skip_agree_on_mean_stabilization_time() {
    let config = UsdConfig::decided(vec![70, 50, 30]);
    let n = config.n();
    let reps = 150u64;

    let mut means = [0.0f64; 2];
    for seed in 0..reps {
        // Generic substrate simulator.
        let proto = UndecidedStateDynamics::new(config.k());
        let mut generic = CountSimulator::new(proto, &config.to_count_config());
        let mut rng = SimRng::new(seed);
        generic.run(&mut rng, 100_000_000, |s| {
            let counts = s.counts();
            let u = counts[counts.len() - 1];
            u == n
                || (u == 0
                    && counts[..counts.len() - 1]
                        .iter()
                        .filter(|&&c| c > 0)
                        .count()
                        <= 1)
        });
        means[0] += generic.interactions() as f64;

        // The skip-ahead engine.
        let mut skip = SkipAheadSimulator::new(&config);
        let mut rng = SimRng::new(seed + 90_000);
        let (t, stable) = skip.run_to_silence(&mut rng, 100_000_000);
        assert!(stable);
        means[1] += t as f64;
    }
    for m in &mut means {
        *m /= reps as f64;
    }
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    let min = means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (max - min) / max < 0.12,
        "engines disagree: generic {} skip-ahead {}",
        means[0],
        means[1]
    );
}
