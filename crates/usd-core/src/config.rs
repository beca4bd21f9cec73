//! The USD configuration vector x = (x₁, …, x_k, u).
//!
//! [`UsdConfig`] is the exact object the paper's notation section defines:
//! per-opinion counts plus the undecided count, with the population size
//! `n` as the conserved invariant. It converts to and from the generic
//! [`pop_proto::CountConfig`] (opinion `i` ↔ dense index `i`, ⊥ ↔ index `k`)
//! and carries the accessors the analysis needs (bias, gaps, ordering).

use pop_proto::CountConfig;
use std::fmt;

/// A configuration of the Undecided State Dynamics: opinion counts
/// x₁, …, x_k and the undecided count u.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UsdConfig {
    x: Vec<u64>,
    u: u64,
}

impl UsdConfig {
    /// Build from opinion counts and an undecided count. Requires `k ≥ 1`.
    pub fn new(x: Vec<u64>, u: u64) -> Self {
        assert!(!x.is_empty(), "need at least one opinion");
        UsdConfig { x, u }
    }

    /// The paper's initial configurations have `u(0) = 0`.
    pub fn decided(x: Vec<u64>) -> Self {
        Self::new(x, 0)
    }

    /// Number of opinions `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.x.len()
    }

    /// Population size `n = Σxᵢ + u`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.x.iter().sum::<u64>() + self.u
    }

    /// Count of agents holding opinion `i` (0-based).
    #[inline]
    pub fn x(&self, i: usize) -> u64 {
        self.x[i]
    }

    /// All opinion counts.
    #[inline]
    pub fn opinions(&self) -> &[u64] {
        &self.x
    }

    /// Undecided count `u`.
    #[inline]
    pub fn u(&self) -> u64 {
        self.u
    }

    /// Number of decided agents `n − u`.
    #[inline]
    pub fn decided_count(&self) -> u64 {
        self.x.iter().sum()
    }

    /// Index of a plurality opinion (max count; smallest index on ties).
    /// `None` if every opinion has zero support.
    pub fn plurality(&self) -> Option<usize> {
        let (idx, &max) = self
            .x
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        (max > 0).then_some(idx)
    }

    /// The bias x₍₁₎ − x₍₂₎ between the largest and second-largest opinion
    /// counts (0 when k = 1).
    pub fn bias(&self) -> u64 {
        if self.x.len() < 2 {
            return 0;
        }
        let mut first = 0u64;
        let mut second = 0u64;
        for &v in &self.x {
            if v >= first {
                second = first;
                first = v;
            } else if v > second {
                second = v;
            }
        }
        first - second
    }

    /// Signed gap Δᵢⱼ = xᵢ − xⱼ.
    pub fn gap(&self, i: usize, j: usize) -> i64 {
        self.x[i] as i64 - self.x[j] as i64
    }

    /// Maximum pairwise gap max₍ᵢⱼ₎ {xᵢ − xⱼ} = max − min over opinions.
    pub fn max_gap(&self) -> u64 {
        let max = self.x.iter().max().copied().unwrap_or(0);
        let min = self.x.iter().min().copied().unwrap_or(0);
        max - min
    }

    /// Opinion counts sorted descending (the paper's x₁ ≥ x₂ ≥ … ≥ x_k).
    pub fn sorted_desc(&self) -> Vec<u64> {
        let mut v = self.x.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Whether the configuration is a consensus (all agents decided on one
    /// opinion). Returns the winning opinion.
    pub fn consensus(&self) -> Option<usize> {
        if self.u != 0 {
            return None;
        }
        let mut winner = None;
        for (i, &c) in self.x.iter().enumerate() {
            if c > 0 {
                if winner.is_some() {
                    return None;
                }
                winner = Some(i);
            }
        }
        winner
    }

    /// Whether the configuration is **silent** under USD: consensus, or the
    /// all-undecided absorbing state (or an empty/singleton population).
    pub fn is_silent(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        self.consensus().is_some() || self.u == n
    }

    /// Number of opinions with positive support.
    pub fn support(&self) -> usize {
        self.x.iter().filter(|&&c| c > 0).count()
    }

    /// Convert to the generic dense count configuration
    /// (opinion `i` → index `i`, ⊥ → index `k`).
    pub fn to_count_config(&self) -> CountConfig {
        let mut counts = self.x.clone();
        counts.push(self.u);
        CountConfig::from_counts(counts)
    }

    /// Convert back from a dense count configuration with `k + 1` states.
    pub fn from_count_config(config: &CountConfig) -> Self {
        let counts = config.counts();
        assert!(counts.len() >= 2, "need at least opinion + undecided");
        UsdConfig {
            x: counts[..counts.len() - 1].to_vec(),
            u: counts[counts.len() - 1],
        }
    }
}

impl fmt::Display for UsdConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x=[")?;
        for (i, &v) in self.x.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "], u={}, n={}", self.u, self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = UsdConfig::new(vec![5, 3, 2], 10);
        assert_eq!(c.k(), 3);
        assert_eq!(c.n(), 20);
        assert_eq!(c.u(), 10);
        assert_eq!(c.decided_count(), 10);
        assert_eq!(c.x(1), 3);
        assert_eq!(c.support(), 3);
    }

    #[test]
    fn plurality_and_bias() {
        let c = UsdConfig::decided(vec![10, 7, 7, 1]);
        assert_eq!(c.plurality(), Some(0));
        assert_eq!(c.bias(), 3);
        assert_eq!(c.max_gap(), 9);
        assert_eq!(c.gap(0, 3), 9);
        assert_eq!(c.gap(3, 0), -9);
    }

    #[test]
    fn plurality_tie_prefers_smallest_index() {
        let c = UsdConfig::decided(vec![5, 9, 9]);
        assert_eq!(c.plurality(), Some(1));
        assert_eq!(c.bias(), 0);
    }

    #[test]
    fn plurality_of_all_zero_support() {
        let c = UsdConfig::new(vec![0, 0], 7);
        assert_eq!(c.plurality(), None);
    }

    #[test]
    fn sorted_desc_matches_paper_ordering() {
        let c = UsdConfig::decided(vec![3, 9, 1, 9]);
        assert_eq!(c.sorted_desc(), vec![9, 9, 3, 1]);
    }

    #[test]
    fn consensus_detection() {
        assert_eq!(UsdConfig::new(vec![0, 8, 0], 0).consensus(), Some(1));
        assert_eq!(UsdConfig::new(vec![0, 8, 0], 1).consensus(), None);
        assert_eq!(UsdConfig::new(vec![4, 4, 0], 0).consensus(), None);
        assert_eq!(UsdConfig::new(vec![0, 0], 0).consensus(), None);
    }

    #[test]
    fn silence_includes_all_undecided() {
        assert!(UsdConfig::new(vec![0, 0], 9).is_silent());
        assert!(UsdConfig::new(vec![9, 0], 0).is_silent());
        assert!(!UsdConfig::new(vec![8, 0], 1).is_silent());
        // Singleton population is trivially silent.
        assert!(UsdConfig::new(vec![1, 0], 0).is_silent());
    }

    #[test]
    fn count_config_roundtrip() {
        let c = UsdConfig::new(vec![4, 6], 2);
        let cc = c.to_count_config();
        assert_eq!(cc.counts(), &[4, 6, 2]);
        assert_eq!(UsdConfig::from_count_config(&cc), c);
    }

    #[test]
    fn display_format() {
        let c = UsdConfig::new(vec![1, 2], 3);
        assert_eq!(format!("{c}"), "x=[1, 2], u=3, n=6");
    }

    #[test]
    #[should_panic(expected = "at least one opinion")]
    fn empty_opinion_vector_rejected() {
        UsdConfig::new(vec![], 5);
    }
}
