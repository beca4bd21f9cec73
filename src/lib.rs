//! # plurality-consensus
//!
//! A production-quality Rust reproduction of
//! *"An Almost Tight Lower Bound for Plurality Consensus with Undecided
//! State Dynamics in the Population Protocol Model"*
//! (El-Hayek, Elsässer, Schmid — PODC 2025, arXiv:2505.02765).
//!
//! The workspace implements, from scratch:
//!
//! * a generic **population-protocol substrate** ([`pop_proto`]) —
//!   protocols, schedulers (uniform clique and graph-restricted), seeded
//!   interaction-graph family generators (cycle, torus, hypercube, random
//!   regular, Erdős–Rényi), and six exact simulators including the
//!   batch-leaping clique engine, the active-edge and batch-leaping graph
//!   engines, and the bit-parallel replica ensemble engine;
//! * the **Undecided State Dynamics** and its full analysis toolkit
//!   ([`usd_core`]) — the paper's object of study, including the exact
//!   one-step drifts, thresholds, and bound curves from the proof;
//! * the **drift-analysis machinery** the proof uses ([`drift_analysis`]) —
//!   Lemma 3.2's coupled lazy walks, the Oliveto–Witt negative-drift
//!   theorem, Bernstein tails, hitting-time estimation;
//! * **baseline protocols** ([`usd_baselines`]) — four-state exact
//!   majority, voter dynamics, 3-majority, Gossip-model and synchronized
//!   USD;
//! * an **experiment harness** ([`usd_experiments`]) regenerating every
//!   figure and quantitative claim (the README's "Experiments × backends"
//!   section lists the experiment index);
//! * shared **statistics utilities** ([`sim_stats`]).
//!
//! ## Quickstart
//!
//! ```
//! use plurality_consensus::prelude::*;
//!
//! // n = 10,000 agents, k = 6 opinions, the paper's Figure-1 bias.
//! let config = InitialConfigBuilder::new(10_000, 6).figure1();
//! let mut rng = SimRng::new(42);
//! // Any of the seven backends runs the same chain; `skip` jumps over
//! // no-op meetings geometrically.
//! let result = RunSpec::new(&config)
//!     .backend(Backend::SkipAhead)
//!     .run(&mut rng);
//! assert!(result.stabilized());
//! // With bias sqrt(n ln n), the initial plurality wins w.h.p.
//! assert!(result.plurality_won());
//! println!("stabilized in {:.1} parallel time", result.parallel_time(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drift_analysis;
pub use pop_proto;
pub use sim_stats;
pub use usd_baselines;
pub use usd_core;
pub use usd_experiments;

/// One-stop imports for the common simulation workflow.
pub mod prelude {
    pub use pop_proto::topology::TopologyFamily;
    pub use pop_proto::Simulator;
    pub use sim_stats::rng::{RngFactory, SimRng};
    pub use usd_core::analysis::{
        expected_gap_drift, expected_undecided_drift, monochromatic_distance, undecided_plateau,
    };
    pub use usd_core::backend::Backend;
    pub use usd_core::init::InitialConfigBuilder;
    pub use usd_core::protocol::{UndecidedStateDynamics, UsdState};
    pub use usd_core::runspec::{EnsembleOutcome, LaneOutcome, RunSpec, DEFAULT_REPLICAS};
    pub use usd_core::stabilization::{ConsensusOutcome, StabilizationResult};
    pub use usd_core::theory::Bounds;
    pub use usd_core::{SkipAheadSimulator, UsdConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let config = InitialConfigBuilder::new(2_000, 4).figure1();
        let mut rng = SimRng::new(7);
        let result = RunSpec::new(&config)
            .backend(Backend::SkipAhead)
            .run(&mut rng);
        assert!(result.stabilized());
    }
}
