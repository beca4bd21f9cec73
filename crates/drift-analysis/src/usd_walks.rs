//! Adapters exposing the USD process as random walks.
//!
//! The lower-bound proof studies three induced walks: −u(t) (Lemma 3.1),
//! a single opinion's count xᵢ(t) (Lemma 3.3), and the pairwise gap
//! Δᵢⱼ(t) (Lemma 3.4). This module computes, for a concrete configuration,
//! the exact `(p, q)` step-law parameters of those walks — the quantities
//! the lemma proofs bound symbolically — and provides the lemma-level
//! parameter summaries the verification experiments print.

use usd_core::analysis::{gap_step_probabilities, interaction_probabilities};
use usd_core::UsdConfig;

/// Exact step law of the xᵢ(t) walk at a configuration: returns
/// `(p, q)` = (P(+1) + P(−1), P(+1) − P(−1)).
///
/// P(+1) = 2xᵢu/(n(n−1)) (adoption), P(−1) = 2xᵢ(n−u−xᵢ)/(n(n−1)) (clash).
pub fn opinion_walk_law(config: &UsdConfig, i: usize) -> (f64, f64) {
    let n = config.n() as f64;
    let pairs = n * (n - 1.0);
    let xi = config.x(i) as f64;
    let u = config.u() as f64;
    let plus = 2.0 * xi * u / pairs;
    let minus = 2.0 * xi * (n - u - xi) / pairs;
    (plus + minus, plus - minus)
}

/// Exact step law of the Δᵢⱼ(t) walk at a configuration. Note Δᵢⱼ can also
/// jump by ±... no: a single interaction changes Δᵢⱼ by at most 1 in USD
/// when i ≠ j — a clash between i and j decreases xᵢ and xⱼ together,
/// leaving the gap unchanged; adoption or third-party clash moves exactly
/// one endpoint.
pub fn gap_walk_law(config: &UsdConfig, i: usize, j: usize) -> (f64, f64) {
    let (plus, minus) = gap_step_probabilities(config, i, j);
    (plus + minus, plus - minus)
}

/// Exact step law of the u(t) walk. u moves by −1 (adoption) or +2
/// (clash); we report `(p, drift)` where p is the move probability and
/// drift the expected signed change (u's walk is not ±1, so the Lemma 3.2
/// form does not apply to it — the paper uses Oliveto–Witt instead).
pub fn undecided_walk_law(config: &UsdConfig) -> (f64, f64) {
    let p = interaction_probabilities(config);
    (p.clash + p.adopt, 2.0 * p.clash - p.adopt)
}

/// The Lemma 3.3 parameter bundle at a configuration with xᵢ ≤ 2n/k:
/// the lemma's constants `p = 5/k`, `q = 6.25/k²`, `T = n/(2k)`, plus the
/// exact current law for comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lemma33Params {
    /// The lemma's activity bound 5/k.
    pub p_bound: f64,
    /// The lemma's bias bound 6.25/k².
    pub q_bound: f64,
    /// The lemma's threshold T = n/(2k).
    pub t_threshold: f64,
    /// The exact current activity p(t).
    pub p_exact: f64,
    /// The exact current bias q(t).
    pub q_exact: f64,
}

/// Compute [`Lemma33Params`] for opinion `i`.
pub fn lemma33_params(config: &UsdConfig, i: usize) -> Lemma33Params {
    let k = config.k() as f64;
    let n = config.n() as f64;
    let (p_exact, q_exact) = opinion_walk_law(config, i);
    Lemma33Params {
        p_bound: 5.0 / k,
        q_bound: 6.25 / (k * k),
        t_threshold: n / (2.0 * k),
        p_exact,
        q_exact,
    }
}

/// The Lemma 3.4 parameter bundle: constants `p = 9/k`, `q = 6α/(nk)`,
/// `T = α/2`, plus the exact law for the pair `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lemma34Params {
    /// The lemma's activity bound 9/k.
    pub p_bound: f64,
    /// The lemma's bias bound 6α/(nk).
    pub q_bound: f64,
    /// The lemma's threshold T = α/2.
    pub t_threshold: f64,
    /// The exact current activity.
    pub p_exact: f64,
    /// The exact current bias.
    pub q_exact: f64,
}

/// Compute [`Lemma34Params`] for the pair `(i, j)` and gap scale `alpha`.
pub fn lemma34_params(config: &UsdConfig, i: usize, j: usize, alpha: f64) -> Lemma34Params {
    let k = config.k() as f64;
    let n = config.n() as f64;
    let (p_exact, q_exact) = gap_walk_law(config, i, j);
    Lemma34Params {
        p_bound: 9.0 / k,
        q_bound: 6.0 * alpha / (n * k),
        t_threshold: alpha / 2.0,
        p_exact,
        q_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plateau-like configuration: u near n/2 − n/4k, opinions near n/2k.
    fn plateau_config(n: u64, k: usize) -> UsdConfig {
        let u = (n as f64 / 2.0 - n as f64 / (4.0 * k as f64)) as u64;
        let decided = n - u;
        let base = decided / k as u64;
        let mut x = vec![base; k];
        x[0] += decided - base * k as u64;
        UsdConfig::new(x, u)
    }

    #[test]
    fn opinion_walk_law_consistency() {
        let c = plateau_config(100_000, 10);
        let (p, q) = opinion_walk_law(&c, 1);
        assert!(p > 0.0 && p < 1.0);
        assert!(q.abs() <= p);
        // Drift matches the closed form from usd-core.
        let drift = usd_core::analysis::expected_opinion_drift(&c, 1);
        assert!((q - drift).abs() < 1e-12, "q {q} vs drift {drift}");
    }

    #[test]
    fn gap_walk_law_consistency() {
        let c = UsdConfig::new(vec![120, 80, 100], 300);
        let (p, q) = gap_walk_law(&c, 0, 1);
        assert!(p > 0.0 && q.abs() <= p);
        let drift = usd_core::analysis::expected_gap_drift(&c, 0, 1);
        assert!((q - drift).abs() < 1e-12);
    }

    #[test]
    fn undecided_walk_law_consistency() {
        let c = plateau_config(10_000, 8);
        let (p, drift) = undecided_walk_law(&c);
        assert!(p > 0.0 && p <= 1.0);
        let closed = usd_core::analysis::expected_undecided_drift(&c);
        assert!((drift - closed).abs() < 1e-12);
    }

    #[test]
    fn lemma33_bounds_dominate_exact_on_plateau() {
        // The whole point of the lemma's constants: with xᵢ ≤ 2n/k and u at
        // most slightly above the plateau, p(t) ≤ 5/k and q(t) ≤ 6.25/k².
        let n = 1_000_000u64;
        for &k in &[10usize, 27, 50] {
            let c = plateau_config(n, k);
            for i in 0..k.min(3) {
                let params = lemma33_params(&c, i);
                assert!(
                    params.p_exact <= params.p_bound,
                    "k={k} i={i}: p {} > bound {}",
                    params.p_exact,
                    params.p_bound
                );
                assert!(
                    params.q_exact <= params.q_bound,
                    "k={k} i={i}: q {} > bound {}",
                    params.q_exact,
                    params.q_bound
                );
            }
        }
    }

    #[test]
    fn lemma33_threshold_scale() {
        let c = plateau_config(1_000_000, 27);
        let params = lemma33_params(&c, 0);
        assert!((params.t_threshold - 1_000_000.0 / 54.0).abs() < 1e-9);
    }

    #[test]
    fn lemma34_bounds_dominate_exact_on_plateau() {
        let n = 1_000_000u64;
        let k = 27usize;
        let mut c = plateau_config(n, k);
        // Inject a gap of alpha/2 between opinions 0 and 1.
        let alpha = 8_000.0; // ω(√(n ln n)) ≈ 3717, and o(n/k) ≈ 37037 ✓
        let shift = (alpha / 2.0) as u64;
        let mut x = c.opinions().to_vec();
        x[0] += shift;
        x[1] -= shift;
        c = UsdConfig::new(x, c.u());
        let params = lemma34_params(&c, 0, 1, alpha);
        assert!(params.p_exact <= params.p_bound, "{params:?}");
        assert!(params.q_exact <= params.q_bound, "{params:?}");
        assert_eq!(params.t_threshold, alpha / 2.0);
    }

    #[test]
    fn gap_changes_by_at_most_one_per_interaction() {
        // Structural claim in gap_walk_law's doc: verify by simulation.
        use sim_stats::rng::SimRng;
        use usd_core::backend::{make_simulator, Backend};
        let c = UsdConfig::decided(vec![40, 35, 25]);
        let mut sim = make_simulator(Backend::Count, &c);
        let mut rng = SimRng::new(9);
        let gap = |counts: &[u64]| counts[0] as i64 - counts[1] as i64;
        let mut last_gap = gap(sim.counts());
        for _ in 0..20_000 {
            sim.step(&mut rng);
            let now = gap(sim.counts());
            assert!((now - last_gap).abs() <= 1, "gap jumped by more than 1");
            last_gap = now;
        }
    }
}
