//! The USD-specialized skip-ahead engine (`skip`).
//!
//! It realizes **exactly** the chain of §1.1 — a uniform random ordered
//! pair of distinct agents meets and applies the USD rule — but pays only
//! for the *effective* interactions. A (typically constant) fraction of
//! interactions are no-ops (same opinion, or ⊥ meets ⊥); they do not change
//! the configuration, and the number of consecutive no-ops before the next
//! effective interaction is geometric with the exact no-op probability of
//! the current configuration. The engine samples that geometric skip, then
//! the effective interaction from its exact conditional law (clash with
//! weight Σ_{i<j} xᵢxⱼ, adoption with weight (n−u)·u). The process is
//! **equal in distribution** to the per-interaction chain that `count`
//! simulates (`tests/simulator_equivalence.rs`).

use crate::config::UsdConfig;
use pop_proto::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use pop_proto::simulator::snapshot_tags;
use pop_proto::telemetry::EngineTelemetry;
use pop_proto::{EventHistograms, FenwickSampler, Simulator};
use sim_stats::rng::SimRng;

/// Skip-ahead engine: geometric jumps over no-op interactions.
///
/// Maintains, incrementally, the decided count D = n − u and
/// S₂ = Σᵢ xᵢ² so that the unordered effective-pair weights
///
/// * clash: C = (D² − S₂)/2   (pairs of agents with different opinions)
/// * adopt: A = D · u         (decided–undecided pairs)
///
/// are available in O(1). One advancement draws the geometric number of
/// no-ops (success probability (C + A)/binom(n,2)), picks clash vs adopt
/// proportionally to (C, A) — exactly, in 128-bit integer arithmetic — and
/// samples the involved opinions ∝ xᵢ (and ∝ xᵢxⱼ via rejection for the
/// clash pair). Observation is exact: every changing advancement is one
/// effective event.
#[derive(Debug, Clone)]
pub struct SkipAheadSimulator {
    /// Fenwick over the k opinion counts only.
    opinions: FenwickSampler,
    /// Dense counts: opinions 0..k, undecided at index k.
    counts: Vec<u64>,
    n: u64,
    /// Σᵢ xᵢ², maintained incrementally.
    sum_sq: u128,
    interactions: u64,
    effective: u64,
    /// Engine telemetry: `scheduled`/`effective` mirror the clocks,
    /// `skip_draws` counts the geometric no-op skips and `pair_draws` the
    /// effective-event draws. No phases, no spans.
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): each completed geometric no-op run
    /// (`advanced − 1` on a changing advancement) lands in `skip_len`.
    hist: Option<Box<EventHistograms>>,
}

fn sum_of_squares(xs: &[u64]) -> u128 {
    xs.iter().map(|&v| (v as u128) * (v as u128)).sum()
}

impl SkipAheadSimulator {
    /// Start from a configuration (requires n ≥ 2).
    pub fn new(config: &UsdConfig) -> Self {
        assert!(config.n() >= 2, "need at least 2 agents");
        let mut counts = config.opinions().to_vec();
        counts.push(config.u());
        SkipAheadSimulator {
            opinions: FenwickSampler::new(config.opinions()),
            counts,
            n: config.n(),
            sum_sq: sum_of_squares(config.opinions()),
            interactions: 0,
            effective: 0,
            telemetry: EngineTelemetry::new(),
            hist: None,
        }
    }

    fn k(&self) -> usize {
        self.opinions.len()
    }

    /// Unordered effective-pair weights `(clash, adopt)`.
    #[inline]
    fn effective_weights(&self) -> (u128, u128) {
        let d = self.opinions.total() as u128;
        let clash = (d * d - self.sum_sq) / 2;
        let adopt = d * self.counts[self.k()] as u128;
        (clash, adopt)
    }

    /// Change opinion `i`'s count by `delta` (±1), keeping the Fenwick
    /// tree, the dense counts and S₂ in step.
    #[inline]
    fn shift_opinion(&mut self, i: usize, delta: i64) {
        let x_old = self.counts[i] as u128;
        self.opinions.add(i, delta);
        self.counts[i] = self.counts[i].wrapping_add_signed(delta);
        if delta > 0 {
            self.sum_sq += 2 * x_old + 1;
        } else {
            self.sum_sq -= 2 * x_old - 1;
        }
    }

    /// Sample and apply one effective interaction from the exact
    /// conditional law, given the current `(clash, adopt)` weights (not
    /// both zero). Does not touch the interaction clock.
    fn apply_effective(&mut self, rng: &mut SimRng, clash_w: u128, adopt_w: u128) {
        let k = self.k();
        if rng.below_u128(clash_w + adopt_w) < adopt_w {
            // Adoption: pick the opinion ∝ xᵢ.
            let i = self.opinions.sample(rng);
            self.shift_opinion(i, 1);
            self.counts[k] -= 1;
        } else {
            // Clash: pick (i, j) ∝ xᵢxⱼ over i ≠ j by rejection.
            let (i, j) = loop {
                let i = self.opinions.sample(rng);
                let j = self.opinions.sample(rng);
                if i != j {
                    break (i, j);
                }
            };
            self.shift_opinion(i, -1);
            self.shift_opinion(j, -1);
            self.counts[k] += 2;
        }
    }
}

impl Simulator for SkipAheadSimulator {
    fn population(&self) -> u64 {
        self.n
    }

    fn num_states(&self) -> usize {
        self.counts.len()
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective
    }

    /// One interaction via a horizon-1 advancement (an effective draw with
    /// the exact single-step probability, else a no-op). On an
    /// already-silent configuration the clock stays put.
    fn step(&mut self, rng: &mut SimRng) -> bool {
        self.advance_changed(rng, 1).1
    }

    /// Geometrically skip the no-op run before the next effective
    /// interaction, truncating at the horizon `max` (the first `max`
    /// interactions are then conditionally all no-ops — still exact).
    /// `(0, false)` on a silent configuration: the clock stops.
    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let (clash_w, adopt_w) = self.effective_weights();
        let effective = clash_w + adopt_w;
        if effective == 0 {
            return (0, false);
        }
        let nf = self.n as f64;
        let total_pairs = nf * (nf - 1.0) / 2.0;
        let p_eff = (effective as f64 / total_pairs).min(1.0);
        let skipped = rng.geometric(p_eff);
        // One geometric draw per advancement (truncated or not).
        self.telemetry.skip_draws += 1;
        if skipped >= max {
            self.interactions += max;
            self.telemetry.scheduled += max;
            return (max, false);
        }
        let advanced = skipped + 1;
        self.interactions += advanced;
        self.apply_effective(rng, clash_w, adopt_w);
        self.effective += 1;
        self.telemetry.scheduled += advanced;
        self.telemetry.effective += 1;
        self.telemetry.pair_draws += 1;
        if let Some(h) = &mut self.hist {
            // Only completed no-op runs, matching the per-event engines.
            h.skip_len.add_u64(skipped);
        }
        (advanced, true)
    }

    /// Silent exactly when no effective pair remains (consensus or
    /// all-undecided) — O(1) from the maintained weights.
    fn is_silent(&self) -> bool {
        let (clash, adopt) = self.effective_weights();
        clash + adopt == 0
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = enabled.then(|| Box::new(EventHistograms::new()));
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.hist.as_deref().cloned()
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        let k = self.k();
        w.put_u8(snapshot_tags::USD_SKIP);
        snapshot_tags::write_config(w, self.n, k + 1);
        w.put_u64_slice(&self.counts[..k]);
        w.put_u64(self.counts[k]);
        w.put_u64(self.interactions);
        w.put_u64(self.effective);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let k = self.k();
        snapshot_tags::expect(r, snapshot_tags::USD_SKIP, "skip")?;
        snapshot_tags::expect_config(r, self.n, k + 1)?;
        let mut counts = r.get_u64_vec()?;
        if counts.len() != k {
            return Err(CheckpointError::Corrupt(format!(
                "skip snapshot has {} opinions (engine has {k})",
                counts.len()
            )));
        }
        let u = r.get_u64()?;
        if counts.iter().sum::<u64>() + u != self.n {
            return Err(CheckpointError::Corrupt(
                "skip snapshot does not sum to the population".into(),
            ));
        }
        let interactions = r.get_u64()?;
        let effective = r.get_u64()?;
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        // The Fenwick tree and Σ xᵢ² are derived state, rebuilt exactly.
        self.opinions = FenwickSampler::new(&counts);
        self.sum_sq = sum_of_squares(&counts);
        counts.push(u);
        self.counts = counts;
        self.interactions = interactions;
        self.effective = effective;
        self.telemetry = telemetry;
        self.hist = hist;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conserves_population_and_sum_of_squares() {
        let mut sim = SkipAheadSimulator::new(&UsdConfig::decided(vec![40, 30, 30]));
        let mut rng = SimRng::new(2);
        for _ in 0..2_000 {
            if sim.advance(&mut rng, u64::MAX) == 0 {
                break;
            }
            assert_eq!(sim.counts().iter().sum::<u64>(), 100);
            assert_eq!(sim.opinions.weights(), &sim.counts()[..3]);
            assert_eq!(sim.sum_sq, sum_of_squares(&sim.counts()[..3]));
        }
    }

    #[test]
    fn advances_the_clock_past_noops() {
        // With a huge undecided mass and one tiny opinion, no-ops dominate:
        // the clock must run far ahead of the effective events.
        let mut sim = SkipAheadSimulator::new(&UsdConfig::new(vec![1, 0], 999));
        let mut rng = SimRng::new(3);
        let (t, silent) = sim.run_to_silence(&mut rng, u64::MAX / 2);
        assert!(silent);
        assert!(t > sim.effective_interactions(), "no skipping happened");
        assert_eq!(sim.counts(), &[1000, 0, 0]);
    }

    #[test]
    fn horizon_truncates_the_skip_without_an_event() {
        // Two opinions of one agent each among 10⁶ undecided: the first
        // effective pair is ~2.5·10⁵ interactions away, so a horizon of 5
        // ends in no-ops and leaves the configuration untouched.
        let mut sim = SkipAheadSimulator::new(&UsdConfig::new(vec![1, 1], 1_000_000));
        let mut rng = SimRng::new(4);
        assert_eq!(sim.advance_changed(&mut rng, 5), (5, false));
        assert_eq!(sim.interactions(), 5);
        assert_eq!(sim.effective_interactions(), 0);
        assert_eq!(sim.advance_changed(&mut rng, 0), (0, false));
    }

    #[test]
    fn silent_configurations_stop_the_clock() {
        let mut rng = SimRng::new(5);
        for config in [
            UsdConfig::new(vec![0, 0], 50),
            UsdConfig::decided(vec![10, 0]),
        ] {
            let mut sim = SkipAheadSimulator::new(&config);
            assert!(sim.is_silent());
            assert_eq!(sim.advance_changed(&mut rng, 100), (0, false));
        }
        assert!(!SkipAheadSimulator::new(&UsdConfig::new(vec![9, 0], 1)).is_silent());
    }

    #[test]
    fn two_singleton_opinions_annihilate() {
        // x = (1, 1), u = 0: the only effective interaction is the clash,
        // after which everything is undecided and absorbing.
        let mut sim = SkipAheadSimulator::new(&UsdConfig::decided(vec![1, 1]));
        let mut rng = SimRng::new(5);
        assert_eq!(sim.advance_changed(&mut rng, u64::MAX), (1, true));
        assert_eq!(sim.counts(), &[0, 0, 2]);
        assert!(sim.is_silent());
    }
}
