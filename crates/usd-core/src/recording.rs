//! Record a [`Trajectory`] while a simulator runs.
//!
//! [`TrajectoryRecorder`] is a [`SimObserver`] that snapshots the
//! configuration roughly once per `every` interactions (plus the initial
//! and final configurations), producing the binary-encodable
//! [`Trajectory`] of [`crate::encode`]. It rides on
//! [`Simulator::advance_observed`], so it records on every backend: exactly
//! at the first effective event past each cadence mark on the event-exact
//! engines, at the first block boundary past it on the leaping ones. Every
//! snapshot carries its own interaction stamp, so block-boundary snapshots
//! stay honest. [`record_run`] drives an engine with it; `usd-sim run
//! --trace` attaches the same recorder through
//! [`RunSpec::observer`](crate::RunSpec::observer).

use crate::config::UsdConfig;
use crate::encode::Trajectory;
use pop_proto::{Observation, SimObserver, Simulator};
use sim_stats::rng::SimRng;

/// The USD configuration of dense counts (opinions, then ⊥ last).
fn usd_config(counts: &[u64]) -> UsdConfig {
    let (u, opinions) = counts.split_last().expect("at least the undecided state");
    UsdConfig::new(opinions.to_vec(), *u)
}

/// Round-cadence trajectory recorder (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct TrajectoryRecorder {
    trajectory: Trajectory,
    every: u64,
    next_capture: u64,
}

impl TrajectoryRecorder {
    /// Start a trajectory at `config`, observed at interaction `start`,
    /// capturing a snapshot at the first observation at least `every`
    /// interactions after the previous one.
    pub fn new(config: &UsdConfig, start: u64, every: u64) -> Self {
        assert!(every >= 1, "cadence must be at least 1");
        let mut trajectory = Trajectory::new(config.n(), config.k());
        trajectory.push(start, config.clone());
        TrajectoryRecorder {
            trajectory,
            every,
            next_capture: start + every,
        }
    }

    /// Close the trajectory at the final state — interaction clock
    /// `interactions`, dense `counts` — unless the last snapshot already
    /// sits at that clock, and return it.
    pub fn finish(mut self, interactions: u64, counts: &[u64]) -> Trajectory {
        if self.trajectory.snapshots.last().map(|&(t, _)| t) != Some(interactions) {
            self.trajectory.push(interactions, usd_config(counts));
        }
        self.trajectory
    }
}

impl SimObserver for TrajectoryRecorder {
    fn observe(&mut self, obs: &Observation<'_>) -> bool {
        if obs.interactions >= self.next_capture {
            self.trajectory
                .push(obs.interactions, usd_config(obs.counts));
            self.next_capture = obs.interactions + self.every;
        }
        true
    }
}

/// Run `sim` until it is silent or its interaction clock reaches `budget`,
/// recording a snapshot roughly every `every` interactions (plus the
/// initial and final configurations). Returns the trajectory and whether
/// the run stabilized.
pub fn record_run(
    sim: &mut dyn Simulator,
    rng: &mut SimRng,
    budget: u64,
    every: u64,
) -> (Trajectory, bool) {
    let start = sim.interactions();
    let mut recorder = TrajectoryRecorder::new(&usd_config(sim.counts()), start, every);
    sim.advance_observed(rng, budget.saturating_sub(start), &mut recorder);
    (
        recorder.finish(sim.interactions(), sim.counts()),
        sim.is_silent(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_simulator, Backend};
    use crate::init::InitialConfigBuilder;

    #[test]
    fn records_initial_and_final_snapshots_on_every_clique_engine() {
        let config = InitialConfigBuilder::new(1_000, 3).figure1();
        for backend in [
            Backend::Agent,
            Backend::Count,
            Backend::Batch,
            Backend::SkipAhead,
        ] {
            let mut sim = make_simulator(backend, &config);
            let mut rng = SimRng::new(1);
            let (traj, stabilized) = record_run(sim.as_mut(), &mut rng, u64::MAX / 2, 1_000);
            assert!(stabilized, "{backend}");
            assert!(traj.snapshots.len() >= 2, "{backend}");
            assert_eq!(traj.snapshots[0], (0, config.clone()), "{backend}");
            let (t_final, final_cfg) = traj.snapshots.last().unwrap();
            assert_eq!(*t_final, sim.interactions(), "{backend}");
            assert!(final_cfg.is_silent(), "{backend}");
        }
    }

    #[test]
    fn snapshots_respect_cadence_and_order() {
        let config = InitialConfigBuilder::new(500, 2).figure1();
        let mut sim = make_simulator(Backend::SkipAhead, &config);
        let mut rng = SimRng::new(2);
        let (traj, _) = record_run(sim.as_mut(), &mut rng, u64::MAX / 2, 500);
        let stamps: Vec<u64> = traj.snapshots.iter().map(|&(t, _)| t).collect();
        // Interior snapshots sit at least one cadence apart.
        for w in stamps[..stamps.len() - 1].windows(2) {
            assert!(w[1] >= w[0] + 500, "{stamps:?}");
        }
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        assert!(traj.snapshots.iter().all(|(_, c)| c.n() == 500));
    }

    #[test]
    fn budget_limits_recording() {
        let config = InitialConfigBuilder::new(2_000, 2).balanced();
        let mut sim = make_simulator(Backend::SkipAhead, &config);
        let mut rng = SimRng::new(3);
        let (traj, stabilized) = record_run(sim.as_mut(), &mut rng, 4_000, 1_000);
        assert!(!stabilized, "a dead heat cannot stabilize in 2 rounds");
        assert_eq!(traj.snapshots.last().unwrap().0, 4_000);
    }

    #[test]
    fn roundtrips_through_the_binary_format() {
        let config = InitialConfigBuilder::new(800, 4).figure1();
        let mut sim = make_simulator(Backend::Batch, &config);
        let mut rng = SimRng::new(4);
        let (traj, _) = record_run(sim.as_mut(), &mut rng, u64::MAX / 2, 800);
        let decoded = Trajectory::decode(traj.encode()).unwrap();
        assert_eq!(decoded, traj);
    }
}
