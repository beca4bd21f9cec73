//! Stabilization and doubling-time detection.
//!
//! * [`StabilizationResult`] — outcome of running a configuration to
//!   silence: winner, interaction count, and whether the plurality won
//!   (the correctness criterion of approximate plurality consensus).
//! * [`DoublingDetector`] — watches a scalar trajectory and records the
//!   first time it crosses a target. The lemma experiments instantiate it
//!   for the three quantities the paper tracks: x₁ doubling (Figure 1
//!   right), a single opinion growing from 3n/2k to 2n/k (Lemma 3.3), and
//!   the maximum gap doubling from α/2 to α (Lemma 3.4).

/// How a stabilization run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusOutcome {
    /// Consensus on the given opinion (0-based).
    Winner(usize),
    /// The degenerate all-undecided absorbing state.
    AllUndecided,
    /// Silent without consensus: the dynamics froze in a mixed
    /// configuration. Impossible under the clique scheduler (and on any
    /// connected interaction graph), but disconnected topologies can
    /// strand opinions in separate components.
    Frozen,
    /// The interaction budget ran out first.
    Timeout,
}

/// Result of running an initial configuration to stabilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationResult {
    /// Outcome of the run.
    pub outcome: ConsensusOutcome,
    /// Interactions at the stopping point.
    pub interactions: u64,
    /// The initial plurality opinion (for correctness accounting).
    pub initial_plurality: Option<usize>,
}

impl StabilizationResult {
    /// Whether the run reached a silent configuration (consensus,
    /// all-undecided, or a disconnected-topology freeze).
    pub fn stabilized(&self) -> bool {
        !matches!(self.outcome, ConsensusOutcome::Timeout)
    }

    /// Whether the initial plurality opinion won.
    pub fn plurality_won(&self) -> bool {
        match (self.outcome, self.initial_plurality) {
            (ConsensusOutcome::Winner(w), Some(p)) => w == p,
            _ => false,
        }
    }

    /// Parallel time at the stopping point.
    pub fn parallel_time(&self, n: u64) -> f64 {
        self.interactions as f64 / n as f64
    }
}

/// First-crossing detector for a scalar trajectory.
///
/// Feed it `(interactions, value)` observations in increasing interaction
/// order; it records the first observation at which `value >= target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoublingDetector {
    target: f64,
    hit_at: Option<u64>,
}

impl DoublingDetector {
    /// Detector firing when the observed value first reaches `target`.
    pub fn new(target: f64) -> Self {
        DoublingDetector {
            target,
            hit_at: None,
        }
    }

    /// The target value.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Offer an observation; returns `true` the first time the target is
    /// reached.
    pub fn offer(&mut self, interactions: u64, value: f64) -> bool {
        if self.hit_at.is_none() && value >= self.target {
            self.hit_at = Some(interactions);
            return true;
        }
        false
    }

    /// The interaction count at first crossing, if it happened.
    pub fn hit_at(&self) -> Option<u64> {
        self.hit_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_detector_fires_once() {
        let mut d = DoublingDetector::new(10.0);
        assert!(!d.offer(1, 5.0));
        assert!(d.offer(2, 10.0));
        assert!(!d.offer(3, 20.0), "fires only once");
        assert_eq!(d.hit_at(), Some(2));
    }

    #[test]
    fn parallel_time_conversion() {
        let r = StabilizationResult {
            outcome: ConsensusOutcome::Winner(0),
            interactions: 5_000,
            initial_plurality: Some(0),
        };
        assert!((r.parallel_time(1_000) - 5.0).abs() < 1e-12);
    }
}
